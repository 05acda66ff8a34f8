package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
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

	phase := func(opts PipelineOptions) *MSAPhase {
		t.Helper()
		mp, err := s.RunMSAPhase(context.Background(), in, mach, opts)
		if err != nil {
			t.Fatal(err)
		}
		return mp
	}
	phase(PipelineOptions{Threads: 4, FreshMSA: true})
	if n := len(s.msaMemo); n != 0 {
		t.Fatalf("FreshMSA populated the suite memo (%d entries)", n)
	}

	// And the memoized path still memoizes: one entry per sample and
	// profile holding the search, its view at each thread count asked for,
	// and each view's replay per machine.
	first := phase(PipelineOptions{Threads: 4})
	e := s.msaMemo["promo/full"]
	if len(s.msaMemo) != 1 || e == nil || len(e.views) != 1 || len(e.views[4].sims) != 1 {
		t.Fatalf("memoized run left memo %+v, want one entry with one view and one replay", s.msaMemo)
	}
	if again := phase(PipelineOptions{Threads: 4, RunIndex: 1}); again.Data != first.Data {
		t.Fatal("a repeat at the same thread count did not return the memoized result")
	}
	phase(PipelineOptions{Threads: 2})
	if len(s.msaMemo) != 1 || len(e.views) != 2 || e.views[2].res == e.search {
		t.Fatal("a second thread count must add a re-cut view to the entry, not a search")
	}
	if phase(PipelineOptions{Threads: 4, FreshMSA: true}).Data == first.Data {
		t.Fatal("FreshMSA read the memo")
	}
}

// TestMemoServesConcurrentCallersOneResult: callers asking for one sample
// at several thread counts at once share one memo entry, and every caller
// of a thread count gets the same result and the same replay, whichever
// goroutine searched or re-cut first.
func TestMemoServesConcurrentCallersOneResult(t *testing.T) {
	s := newTestSuite(t)
	in, err := inputs.ByName("2PV7")
	if err != nil {
		t.Fatal(err)
	}
	threads := []int{1, 2, 4, 8, 1, 2, 4, 8}
	results := make([]*msa.Result, len(threads))
	seconds := make([]float64, len(threads))
	var wg sync.WaitGroup
	for i, T := range threads {
		wg.Add(1)
		go func(i, T int) {
			defer wg.Done()
			sim, err := s.MSAReplay(in, platform.Server(), T)
			if err != nil {
				t.Error(err)
				return
			}
			seconds[i] = sim.Seconds
			if results[i], err = s.MSAResult(in, T); err != nil {
				t.Error(err)
			}
		}(i, T)
	}
	wg.Wait()
	if n := len(s.msaMemo); n != 1 {
		t.Fatalf("%d memo entries for one sample and profile", n)
	}
	for i, T := range threads[:4] {
		if results[i] == nil || results[i] != results[i+4] || seconds[i] != seconds[i+4] {
			t.Fatalf("%dT: two callers got different results or replays", T)
		}
	}
}

// TestCachedHitMSAPhaseReadsNoEvent: an MSA phase whose every chain hits
// the chain cache credits the cached chains' per-record sums to its
// workers — which hold their credits and no fold state, and whose ledgers
// equal the searching run's — models the same seconds as that run, and
// allocates little.
func TestCachedHitMSAPhaseReadsNoEvent(t *testing.T) {
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
	run() // a first hit warms every lazily built table on the hit path

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
	for w, acc := range hitB.Data.Workers {
		if acc.Ledger() != fresh.Data.Workers[w].Ledger() || !reflect.DeepEqual(acc, &metering.Accumulator{Credit: acc.Credit}) {
			t.Fatalf("worker %d: a hit holds more than its credits, or its ledger differs from the search's", w)
		}
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("cached-hit MSA phase allocated %d bytes", alloc)
	if alloc >= 64<<10 {
		t.Fatalf("cached-hit MSA phase allocated %d bytes, want < 64 KiB", alloc)
	}
}
