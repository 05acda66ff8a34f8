package msa

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"afsysbench/internal/inputs"
)

// assertSameResult checks the full determinism contract between two MSA
// results: per-chain summaries, worker metering event streams, streamed
// bytes, serial work and features must be bitwise identical. Operational
// counters (RestoredChains, Hedges) are deliberately excluded.
func assertSameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.PerChain, b.PerChain) {
		t.Errorf("per-chain results differ:\n%+v\n%+v", a.PerChain, b.PerChain)
	}
	if a.TotalHitResidues != b.TotalHitResidues {
		t.Errorf("TotalHitResidues %d != %d", a.TotalHitResidues, b.TotalHitResidues)
	}
	if a.SerialInstructions != b.SerialInstructions {
		t.Errorf("SerialInstructions %d != %d", a.SerialInstructions, b.SerialInstructions)
	}
	if !reflect.DeepEqual(a.Streamed, b.Streamed) {
		t.Errorf("streamed bytes differ:\n%v\n%v", a.Streamed, b.Streamed)
	}
	if len(a.Workers) != len(b.Workers) {
		t.Fatalf("worker counts differ: %d vs %d", len(a.Workers), len(b.Workers))
	}
	for w := range a.Workers {
		if !reflect.DeepEqual(a.Workers[w].Flat(), b.Workers[w].Flat()) {
			t.Errorf("worker %d event stream differs (%d vs %d events)",
				w, a.Workers[w].Len(), b.Workers[w].Len())
		}
	}
	if !reflect.DeepEqual(a.Features, b.Features) {
		t.Errorf("features differ: %+v vs %+v", a.Features, b.Features)
	}
	if len(a.Pairing.Rows) != len(b.Pairing.Rows) {
		t.Errorf("paired rows %d != %d", len(a.Pairing.Rows), len(b.Pairing.Rows))
	}
}

// TestCheckpointResumeOnlyFailedChains is the headline resumability test:
// a run that faults on chain B checkpoints chain A; the retry replays A
// from the checkpoint, re-searches only B and C, and the final result is
// bitwise identical to a fault-free run.
func TestCheckpointResumeOnlyFailedChains(t *testing.T) {
	in, _ := inputs.ByName("1YY9") // three distinct protein chains A, B, C
	base := Options{Threads: 2, DBs: dbs(t), CheckpointScope: "full"}

	clean, err := Run(in, base)
	if err != nil {
		t.Fatal(err)
	}

	cp := NewCheckpoint()
	boom := errors.New("injected chain fault")
	faultB := true
	var mu sync.Mutex
	var searched []string
	opts := base
	opts.Checkpoint = cp
	opts.ChainFault = func(chainID string, attempt int) error {
		mu.Lock()
		defer mu.Unlock()
		searched = append(searched, chainID)
		if chainID == "B" && faultB {
			faultB = false
			return boom
		}
		return nil
	}

	if _, err := Run(in, opts); !errors.Is(err, boom) {
		t.Fatalf("first attempt error = %v, want injected fault", err)
	}
	// Chains run in order: A completed and checkpointed, B faulted, C
	// never started.
	if cp.Len() != 1 {
		t.Fatalf("checkpointed chains after fault = %d, want 1", cp.Len())
	}

	mu.Lock()
	searched = nil
	mu.Unlock()
	res, err := Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]string(nil), searched...)
	mu.Unlock()
	if !reflect.DeepEqual(got, []string{"B", "C"}) {
		t.Fatalf("retry searched chains %v, want only [B C]", got)
	}
	if res.RestoredChains != 1 {
		t.Errorf("RestoredChains = %d, want 1", res.RestoredChains)
	}
	assertSameResult(t, clean, res)
}

// TestCheckpointScopeIsolation: deltas recorded against one database
// profile must not replay under another scope (a degradation-ladder
// re-plan searches different databases).
func TestCheckpointScopeIsolation(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	cp := NewCheckpoint()
	opts := Options{Threads: 1, DBs: dbs(t), Checkpoint: cp, CheckpointScope: "full"}
	if _, err := Run(in, opts); err != nil {
		t.Fatal(err)
	}
	if cp.Len() != 1 {
		t.Fatalf("checkpointed chains = %d, want 1", cp.Len())
	}
	opts.CheckpointScope = "reduced"
	res, err := Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RestoredChains != 0 {
		t.Errorf("scope %q replayed %d chains from scope %q", "reduced", res.RestoredChains, "full")
	}
	// Same scope does replay.
	opts.CheckpointScope = "full"
	res, err = Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RestoredChains != 1 {
		t.Errorf("same-scope retry restored %d chains, want 1", res.RestoredChains)
	}
}

// TestHedgedRunDeterministic: with an aggressive hedge budget every chain
// races a backup attempt, and the result must still be bitwise identical
// to an unhedged run — hedging trades CPU for latency, never output.
func TestHedgedRunDeterministic(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	base := Options{Threads: 2, DBs: dbs(t)}
	clean, err := Run(in, base)
	if err != nil {
		t.Fatal(err)
	}
	hedged := base
	hedged.HedgeAfter = time.Nanosecond // backup launches essentially immediately
	res, err := Run(in, hedged)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hedges != 1 {
		t.Errorf("Hedges = %d, want 1", res.Hedges)
	}
	assertSameResult(t, clean, res)
}

// TestHedgeBackupRescuesFailingPrimary: the primary attempt stalls past
// the hedge budget and then fails; the backup attempt (attempt 2, whose
// fault budget is clear) completes the chain and the run succeeds with an
// unchanged result.
func TestHedgeBackupRescuesFailingPrimary(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	base := Options{Threads: 2, DBs: dbs(t)}
	clean, err := Run(in, base)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("primary died")
	opts := base
	opts.HedgeAfter = time.Millisecond
	opts.ChainFault = func(chainID string, attempt int) error {
		if attempt == 1 {
			// Fail only after the hedge timer has fired, so the backup
			// is already racing when the primary dies.
			time.Sleep(10 * time.Millisecond)
			return boom
		}
		return nil
	}
	res, err := Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hedges != 1 || res.HedgeBackupWins != 1 {
		t.Errorf("Hedges = %d, HedgeBackupWins = %d, want 1/1", res.Hedges, res.HedgeBackupWins)
	}
	assertSameResult(t, clean, res)
}

// TestHedgePrimaryFailureBeforeTimer: a primary that fails before the
// hedge budget elapses reports immediately — no backup is launched; the
// failure belongs to the stage-retry path, not the hedge path.
func TestHedgePrimaryFailureBeforeTimer(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	boom := errors.New("fast failure")
	opts := Options{
		Threads:    1,
		DBs:        dbs(t),
		HedgeAfter: time.Hour,
		ChainFault: func(chainID string, attempt int) error {
			if attempt == 1 {
				return boom
			}
			return nil
		},
	}
	start := time.Now()
	_, err := Run(in, opts)
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want fast failure", err)
	}
	if time.Since(start) > 30*time.Second {
		t.Error("fast-failing primary waited on the hedge timer")
	}
}

// TestChainDoneObservesSearchedChainsOnly: the latency observer fires for
// real searches, not checkpoint replays.
func TestChainDoneObservesSearchedChainsOnly(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	cp := NewCheckpoint()
	var mu sync.Mutex
	done := map[string]int{}
	opts := Options{
		Threads: 1, DBs: dbs(t), Checkpoint: cp, CheckpointScope: "s",
		ChainDone: func(chainID string, wall time.Duration) {
			mu.Lock()
			done[chainID]++
			mu.Unlock()
		},
	}
	if _, err := Run(in, opts); err != nil {
		t.Fatal(err)
	}
	if done["A"] != 1 {
		t.Fatalf("ChainDone counts after first run = %v", done)
	}
	if _, err := Run(in, opts); err != nil {
		t.Fatal(err)
	}
	if done["A"] != 1 {
		t.Errorf("ChainDone fired for a checkpoint replay: %v", done)
	}
}
