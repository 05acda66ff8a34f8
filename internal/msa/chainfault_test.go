package msa

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"afsysbench/internal/inputs"
	"afsysbench/internal/resilience"
)

// assertSameResult checks the full determinism contract between two MSA
// results: per-chain summaries, worker metering ledgers, streamed bytes,
// serial work and features must be bitwise identical. Operational
// counters (the cache split) are deliberately excluded.
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

// TestChainFaultRetriesOnlyTheFaultedChain: a transient fault on chain B
// is retried inside B's own search — A is searched once, B until its fault
// clears, C once — and the result is bitwise identical to a fault-free run.
func TestChainFaultRetriesOnlyTheFaultedChain(t *testing.T) {
	in, _ := inputs.ByName("1YY9") // three distinct protein chains A, B, C
	base := Options{Threads: 2, DBs: dbs(t)}
	clean, err := Run(in, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, faults := range []int{1, resilience.MaxAttempts - 1} {
		var searched []string
		left := faults
		opts := base
		opts.ChainFault = func(chainID string) error {
			searched = append(searched, chainID)
			if chainID == "B" && left > 0 {
				left--
				return &resilience.FaultError{Class: resilience.ChainTransient, DB: "chain/B"}
			}
			return nil
		}
		res, err := Run(in, opts)
		if err != nil {
			t.Fatalf("%d faults: %v", faults, err)
		}
		want := []string{"A"}
		for i := 0; i <= faults; i++ {
			want = append(want, "B")
		}
		if want = append(want, "C"); !reflect.DeepEqual(searched, want) {
			t.Fatalf("%d faults: searched chains %v, want %v", faults, searched, want)
		}
		assertSameResult(t, clean, res)
	}
}

// TestChainFaultRetryIsBounded: a transient fault that outlasts
// resilience.MaxAttempts searches fails the run with that fault, and an
// error that is not transient fails it at the first search.
func TestChainFaultRetryIsBounded(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	boom := errors.New("not transient")
	for _, tc := range []struct {
		err      error
		searches int
	}{
		{&resilience.FaultError{Class: resilience.ChainTransient, DB: "chain/A"}, resilience.MaxAttempts},
		{boom, 1},
	} {
		searches := 0
		_, err := Run(in, Options{Threads: 1, DBs: dbs(t), ChainFault: func(string) error {
			searches++
			return tc.err
		}})
		if !errors.Is(err, tc.err) {
			t.Errorf("error = %v, want %v", err, tc.err)
		}
		if searches != tc.searches {
			t.Errorf("%v: %d searches, want %d", tc.err, searches, tc.searches)
		}
	}
}

// TestChainDoneObservesSearchedChainsOnly: the latency observer fires for
// real searches, not chain-cache hits.
func TestChainDoneObservesSearchedChainsOnly(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	mem := &mapChainCache{entries: make(map[string]*CachedChain)}
	done := map[string]int{}
	opts := Options{
		Threads: 1, DBs: dbs(t), ChainCache: mem.fetch,
		ChainDone: func(chainID string, wall time.Duration) { done[chainID]++ },
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
	if mem.hits != 1 || done["A"] != 1 {
		t.Errorf("ChainDone fired for a cache hit: %v (%d hits)", done, mem.hits)
	}
}
