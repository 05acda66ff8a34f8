package core

import (
	"context"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
	"afsysbench/internal/resilience"
)

// TestChainFaultRetryMatchesFaultFreeRun: a transient fault on every chain
// is retried inside each chain's own search — one chain-retry event a
// chain, no modeled time charged — and the run's digest is the fault-free
// run's at one thread and at three. A fault that outlasts
// resilience.MaxAttempts searches fails the phase with a transient error.
func TestChainFaultRetryMatchesFaultFreeRun(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("1YY9") // three distinct chains A, B, C
	mach := platform.Desktop()
	for _, threads := range []int{1, 3} {
		clean, err := s.RunPipeline(in, mach, PipelineOptions{Threads: threads, FreshMSA: true})
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := s.RunPipeline(in, mach, PipelineOptions{Threads: threads, Faults: mustFaults(t, "chainfault:*:1")})
		if err != nil {
			t.Fatalf("T%d: %v", threads, err)
		}
		if got := countKind(faulted.Resilience, resilience.KindChainRetry); got != 3 {
			t.Errorf("T%d: chain-retry events = %d, want 3", threads, got)
		}
		if faulted.Digest() != clean.Digest() {
			t.Errorf("T%d: retried run's digest differs from the fault-free run's", threads)
		}
		if faulted.MSASeconds != clean.MSASeconds {
			t.Errorf("T%d: MSA seconds %v != clean %v", threads, faulted.MSASeconds, clean.MSASeconds)
		}
	}
	_, err := s.RunMSAPhase(context.Background(), in, mach, PipelineOptions{Threads: 2, Faults: mustFaults(t, "chainfault:B:4")})
	if err == nil || !resilience.IsTransient(err) {
		t.Fatalf("a fault outlasting the retry budget: error %v, want a transient fault", err)
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
