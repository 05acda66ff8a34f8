package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/msa"
	"afsysbench/internal/platform"
)

// newTestSuite builds a private suite: these tests inspect and depend on
// the memo state, so they cannot share the package-wide instance.
func newTestSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPhaseCompositionMatchesPipeline: running the two phase entry points
// and composing them must reproduce RunPipeline exactly — the serving
// scheduler depends on the split being lossless.
func TestPhaseCompositionMatchesPipeline(t *testing.T) {
	s := newTestSuite(t)
	in, err := inputs.ByName("1YY9")
	if err != nil {
		t.Fatal(err)
	}
	mach := platform.Server()
	opts := PipelineOptions{Threads: 4, FreshMSA: true}

	whole, err := s.RunPipeline(in, mach, opts)
	if err != nil {
		t.Fatal(err)
	}

	mp, err := s.RunMSAPhase(context.Background(), in, mach, opts)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := s.RunInferencePhase(context.Background(), in, mach, opts)
	if err != nil {
		t.Fatal(err)
	}
	composed := ComposeResult(in, mach, opts.Threads, mp, pb)

	if composed.MSASeconds != whole.MSASeconds ||
		composed.MSACPUSeconds != whole.MSACPUSeconds ||
		composed.MSADiskSeconds != whole.MSADiskSeconds ||
		composed.Inference != whole.Inference ||
		composed.Memory != whole.Memory ||
		composed.Sample != whole.Sample ||
		composed.Machine != whole.Machine ||
		composed.Threads != whole.Threads {
		t.Fatalf("composed phases diverge from the whole pipeline:\n  composed %+v\n  whole    %+v", composed, whole)
	}
	if composed.TotalSeconds() != whole.TotalSeconds() {
		t.Fatalf("total seconds: composed %v, whole %v", composed.TotalSeconds(), whole.TotalSeconds())
	}
}

// TestFreshMSABypassesMemo: a FreshMSA run must neither read nor populate
// the suite's experiment memo, so internal/cache stays the only reuse path
// in serving mode.
func TestFreshMSABypassesMemo(t *testing.T) {
	s := newTestSuite(t)
	in, err := inputs.ByName("promo")
	if err != nil {
		t.Fatal(err)
	}
	mach := platform.Desktop()

	if _, err := s.RunMSAPhase(context.Background(), in, mach, PipelineOptions{Threads: 4, FreshMSA: true}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	memoLen := len(s.msaCache)
	s.mu.Unlock()
	if memoLen != 0 {
		t.Fatalf("FreshMSA populated the suite memo (%d entries)", memoLen)
	}

	// And the memoized path still memoizes.
	if _, err := s.RunMSAPhase(context.Background(), in, mach, PipelineOptions{Threads: 4}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	memoLen = len(s.msaCache)
	s.mu.Unlock()
	if memoLen != 1 {
		t.Fatalf("memoized run left %d memo entries, want 1", memoLen)
	}
}

// TestMSAPhaseSizeBytes: the cache charge tracks the feature tensor.
func TestMSAPhaseSizeBytes(t *testing.T) {
	var nilPhase *MSAPhase
	if nilPhase.SizeBytes() <= 0 {
		t.Fatal("nil phase must still charge overhead")
	}
	s := newTestSuite(t)
	in, err := inputs.ByName("1YY9")
	if err != nil {
		t.Fatal(err)
	}
	mp, err := s.RunMSAPhase(context.Background(), in, platform.Server(), PipelineOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if mp.SizeBytes() <= mp.Data.Features.Bytes() {
		t.Fatalf("SizeBytes %d must exceed the raw feature bytes %d", mp.SizeBytes(), mp.Data.Features.Bytes())
	}
}

// TestCachedHitMSAPhaseSharesChainEvents: an MSA phase whose every chain
// hits the chain cache must replay the cached metering events by reference
// — 1YY9's are 1.27 MB, which the phase used to copy per request — and
// still model the same seconds as the run that searched.
func TestCachedHitMSAPhaseSharesChainEvents(t *testing.T) {
	s := suite(t)
	in, err := inputs.ByName("1YY9")
	if err != nil {
		t.Fatal(err)
	}
	mach := platform.Server()
	chains := make(map[string]*msa.CachedChain)
	opts := PipelineOptions{Threads: 2, FreshMSA: true}
	opts.ChainCache = func(scope string, chain inputs.Chain, compute func() (*msa.CachedChain, error)) (*msa.CachedChain, bool, error) {
		key := msa.ChainFingerprint(chain)
		if cc := chains[key]; cc != nil {
			return cc, true, nil
		}
		cc, err := compute()
		chains[key] = cc
		return cc, false, err
	}
	run := func() *MSAPhase {
		mp, err := s.RunMSAPhase(context.Background(), in, mach, opts)
		if err != nil {
			t.Fatal(err)
		}
		return mp
	}
	fresh := run()
	hitA := run() // also warms every lazily built table on the hit path

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hitB := run()
	runtime.ReadMemStats(&after)

	if hitB.Data.CachedChains != len(in.MSAChains()) || hitB.Data.FreshWork != 0 {
		t.Fatalf("not a full hit: %d cached chains, fresh work %d", hitB.Data.CachedChains, hitB.Data.FreshWork)
	}
	if hitB.Seconds != fresh.Seconds || hitB.CPUSeconds != fresh.CPUSeconds {
		t.Fatalf("hit models %v s (cpu %v), fresh %v s (cpu %v)", hitB.Seconds, hitB.CPUSeconds, fresh.Seconds, fresh.CPUSeconds)
	}
	for w := range hitB.Data.Workers {
		a, b := hitA.Data.Workers[w], hitB.Data.Workers[w]
		if !reflect.DeepEqual(a.Flat(), fresh.Data.Workers[w].Flat()) {
			t.Fatalf("worker %d: replayed events differ from the searched ones", w)
		}
		if len(a.Events) == 0 || &a.Events[0] != &b.Events[0] {
			t.Fatalf("worker %d: two hits do not share the cached chain's events", w)
		}
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("cached-hit MSA phase allocated %d bytes", alloc)
	if alloc >= 64<<10 {
		t.Fatalf("cached-hit MSA phase allocated %d bytes, want < 64 KiB", alloc)
	}
}
