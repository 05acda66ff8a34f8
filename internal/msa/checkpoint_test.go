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
// results: per-chain summaries, worker metering ledgers, streamed bytes,
// serial work and features must be bitwise identical. Operational
// counters (RestoredChains) are deliberately excluded.
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
		if a.Workers[w].Ledger() != b.Workers[w].Ledger() {
			t.Errorf("worker %d work differs:\n%v\n%v", w, a.Workers[w].Ledger(), b.Workers[w].Ledger())
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
	if len(cp.chains) != 1 {
		t.Fatalf("checkpointed chains after fault = %d, want 1", len(cp.chains))
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
	if len(cp.chains) != 1 {
		t.Fatalf("checkpointed chains = %d, want 1", len(cp.chains))
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
