package core

import (
	"context"
	"reflect"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/msa"
	"afsysbench/internal/platform"
	"afsysbench/internal/resilience"
	"afsysbench/internal/rng"
)

// TestChainFaultCheckpointRetry drives the serving layer's retry contract
// through the pipeline entry point: a chain fault fails the MSA phase as a
// transient error; a retry sharing the same injector (budget spent) and
// checkpoint (completed chains recorded) succeeds, re-searches only the
// faulted chain, and produces the exact fault-free result.
func TestChainFaultCheckpointRetry(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("1YY9") // three distinct chains A, B, C
	mach := platform.Desktop()

	clean, err := s.RunMSAPhase(context.Background(), in, mach, PipelineOptions{Threads: 2, FreshMSA: true})
	if err != nil {
		t.Fatal(err)
	}

	inj := resilience.NewInjector(mustFaults(t, "chainfault:B:1"), rng.New(1))
	opts := PipelineOptions{
		Threads:       2,
		Injector:      inj,
		MSACheckpoint: msa.NewCheckpoint(),
	}
	_, err = s.RunMSAPhase(context.Background(), in, mach, opts)
	if err == nil {
		t.Fatal("chain fault did not fail the MSA phase")
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("chain fault error not transient: %v", err)
	}
	mp, err := s.RunMSAPhase(context.Background(), in, mach, opts)
	if err != nil {
		t.Fatalf("retry with spent budget failed: %v", err)
	}
	if mp.Data.RestoredChains != 1 {
		t.Errorf("RestoredChains = %d, want 1 (chain A replayed)", mp.Data.RestoredChains)
	}
	if !reflect.DeepEqual(mp.Data.PerChain, clean.Data.PerChain) {
		t.Errorf("retried result differs from fault-free run:\n%+v\n%+v", mp.Data.PerChain, clean.Data.PerChain)
	}
	if mp.Data.TotalHitResidues != clean.Data.TotalHitResidues {
		t.Errorf("TotalHitResidues %d != %d", mp.Data.TotalHitResidues, clean.Data.TotalHitResidues)
	}
	if !approxEq(mp.Seconds, clean.Seconds, 1e-9) {
		t.Errorf("phase seconds %.4f != clean %.4f", mp.Seconds, clean.Seconds)
	}
}

// TestSkipDBsDropsWithoutProbing: a database named in SkipDBs (an open
// circuit breaker upstream) is shed before the scan with a breaker-skip
// event, and the run completes degraded on the remaining profile.
func TestSkipDBsDropsWithoutProbing(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	mp, err := s.RunMSAPhase(context.Background(), in, platform.Desktop(), PipelineOptions{
		Threads: 2,
		SkipDBs: map[string]bool{"uniref_s": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := mp.Resilience
	if got := countKind(rep, resilience.KindBreakerSkip); got != 1 {
		t.Errorf("breaker-skip events = %d, want 1", got)
	}
	if len(rep.DroppedDBs) != 1 || rep.DroppedDBs[0] != "uniref_s" {
		t.Errorf("dropped = %v, want [uniref_s]", rep.DroppedDBs)
	}
	if !rep.Degraded {
		t.Error("breaker skip did not mark the run degraded")
	}
	if got := countKind(rep, resilience.KindRetry); got != 0 {
		t.Errorf("skipped database was probed: %d retries", got)
	}
	if mp.Data.Streamed["uniref_s"] != 0 {
		t.Error("skipped database was streamed")
	}
}
