// Package core is the AFSysBench orchestrator: it wires the substrates
// together into the end-to-end AlphaFold3 pipeline (MSA phase → features →
// inference phase), runs the paper's benchmark matrix (samples × platforms
// × thread counts, with repeat runs for CV), and exposes one typed data
// producer per table and figure of the paper for the report renderers and
// benchmarks to consume.
package core

import (
	"context"
	"strconv"
	"sync"

	"afsysbench/internal/cache"
	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/memest"
	"afsysbench/internal/metering"
	"afsysbench/internal/msa"
	"afsysbench/internal/platform"
	"afsysbench/internal/rng"
	"afsysbench/internal/simgpu"
	"afsysbench/internal/simhw"
	"afsysbench/internal/simio"
	"afsysbench/internal/xla"
)

// Suite is a configured benchmark suite instance.
type Suite struct {
	DBs   *msa.DBSet
	Model simgpu.Model
	// Runs is the repetition count for mean/CV reporting (paper: five).
	Runs int
	// Seed drives the run-to-run jitter model.
	Seed uint64
	// Search carries the scan-engine options for every MSA run the suite
	// performs (the zero value: engine defaults).
	Search hmmer.SearchOptions

	mu sync.Mutex
	// msaMemo holds one search per sample and database profile, keyed
	// "sample/profile" (see msaResultFor).
	msaMemo map[string]*msaEntry
	// xla memoizes compiled artifacts per token count, LRU-bounded to
	// xlaCacheEntries entries of size 1 (nil = no memo: every call
	// compiles).
	xla *cache.Cache
}

type xlaArtifacts struct {
	stats  xla.CompileStats
	events []metering.Event
}

// xlaCacheEntries bounds the compiled-artifact memo: comfortably above the
// default bucket set (internal/batch) plus the Table II exact sizes —
// with shape bucketing in front, the working set is the bucket set — and
// small enough that a diverse long-lived trace cannot grow the memo
// without limit.
const xlaCacheEntries = 24

// NewSuite builds the standard suite: synthetic databases covering the
// Table II samples and the AF3-scale inference model.
func NewSuite() (*Suite, error) {
	dbs, err := msa.BuildDBSet(inputs.Samples(), msa.DefaultDBConfig())
	if err != nil {
		return nil, err
	}
	return &Suite{
		DBs:     dbs,
		Model:   simgpu.DefaultModel(),
		Runs:    5,
		Seed:    0xAF5B,
		msaMemo: make(map[string]*msaEntry),
		xla:     cache.New(xlaCacheEntries),
	}, nil
}

// msaEntry is the memo's one search of a sample against one database
// profile, and every thread count's view of it.
type msaEntry struct {
	search *msa.Result
	views  map[int]msaView
}

// msaView is one thread count's MSA result: the search itself at the
// thread count it ran at, a Rethread of it at every other. sims memoizes its
// machine-model replays; it is nil for a fresh search, which nothing keeps.
type msaView struct {
	res  *msa.Result
	sims map[platform.Machine]simhw.Result
}

// MSAResult runs (or returns the cached) MSA phase for a sample at a thread
// count. The result is platform-independent: the machine models replay it.
func (s *Suite) MSAResult(in *inputs.Input, threads int) (*msa.Result, error) {
	v, err := s.msaResultFor(context.Background(), in, threads, s.DBs, "full", false, msa.Options{})
	return v.res, err
}

// MSAReplay is the machine-model replay of a sample's MSA phase at a thread
// count on mach — simhw.Simulate(msa.BuildRunSpec(mach, res)) of
// MSAResult's res, computed once per suite.
func (s *Suite) MSAReplay(in *inputs.Input, mach platform.Machine, threads int) (simhw.Result, error) {
	v, err := s.msaResultFor(context.Background(), in, threads, s.DBs, "full", false, msa.Options{})
	if err != nil {
		return simhw.Result{}, err
	}
	return s.replay(v, mach), nil
}

// msaResultFor runs (or returns the memoized) MSA phase against a specific
// database profile. sig names the profile in the memo key: the degradation
// ladder re-plans the stage against reduced sets, and a result computed
// with a dropped database must never be served for the full profile (or
// vice versa). The memo searches once per sample and profile, at the first
// thread count asked for; a thread count changes only which worker each
// record's metering work lands in, so every other count is that search's
// msa.Result.Rethread, kept so that a repeat returns the same result.
//
// fresh bypasses the memo entirely — no read, no write — for callers that
// manage reuse themselves (PipelineOptions.FreshMSA) and for any run
// carrying chain faults. sig doubles as the chain cache's scope, so a chain
// searched under one profile never replays under another. hooks carries
// the per-run hooks (ChainFault, ChainCache, Scatter; the zero value means
// a plain search);
// everything else in it is filled in here.
func (s *Suite) msaResultFor(ctx context.Context, in *inputs.Input, threads int, dbs *msa.DBSet, sig string, fresh bool, hooks msa.Options) (msaView, error) {
	var key string
	var e *msaEntry
	if !fresh {
		key = in.Name + "/" + sig
		s.mu.Lock()
		e = s.msaMemo[key]
		if v, ok := e.view(threads); ok {
			s.mu.Unlock()
			return v, nil
		}
		s.mu.Unlock()
	}
	var res *msa.Result
	var err error
	if e != nil {
		res = e.search.Rethread(threads)
	} else {
		hooks.Threads = threads
		hooks.Search = s.Search
		hooks.DBs = dbs
		hooks.AllowMissingDB = true
		hooks.Scope = sig
		res, err = msa.RunCtx(ctx, in, hooks)
	}
	if err != nil || fresh {
		return msaView{res: res}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A concurrent first request may have stored the entry or the view
	// meanwhile; what is stored wins, so every caller sees one result.
	if e = s.msaMemo[key]; e == nil {
		e = &msaEntry{search: res, views: make(map[int]msaView)}
		s.msaMemo[key] = e
	}
	if v, ok := e.view(threads); ok {
		return v, nil
	}
	v := msaView{res: res, sims: make(map[platform.Machine]simhw.Result)}
	e.views[threads] = v
	return v, nil
}

// view returns the entry's view at a thread count, if it has one. A nil
// entry has none.
func (e *msaEntry) view(threads int) (msaView, bool) {
	if e == nil {
		return msaView{}, false
	}
	v, ok := e.views[threads]
	return v, ok
}

// replay is the machine-model replay of v's result on mach, memoized in v
// unless v is a fresh search.
func (s *Suite) replay(v msaView, mach platform.Machine) simhw.Result {
	if v.sims == nil {
		return simhw.Simulate(msa.BuildRunSpec(mach, v.res))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sim, ok := v.sims[mach]
	if !ok {
		sim = simhw.Simulate(msa.BuildRunSpec(mach, v.res))
		v.sims[mach] = sim
	}
	return sim
}

// XLAArtifacts builds and compiles the inference graph for n tokens,
// memoizing the stats and host-side metering events. The memo is a bounded
// LRU with singleflight (concurrent first requests for a token count
// compile once): an evicted token count recompiles on its next use — the
// compile is deterministic, so eviction costs time, never correctness.
func (s *Suite) XLAArtifacts(n int) (xla.CompileStats, []metering.Event, error) {
	v, _, err := s.xla.GetOrCompute(strconv.Itoa(n), func() (any, int64, error) {
		g := xla.BuildInferenceGraph(s.Model.PF, s.Model.DF, n, s.Model.Recycles)
		var events metering.Log // CompileSim reads each event's WorkingSet
		st, err := xla.Compile(g, &events)
		return xlaArtifacts{stats: st, events: events}, 1, err
	})
	if err != nil {
		return xla.CompileStats{}, nil, err
	}
	art := v.(xlaArtifacts)
	return art.stats, art.events, nil
}

// HostProfile is the simulated host-side inference startup profile: the
// full counter set (Table V) plus the XLA-compile portion of the time
// (Figure 8's compile bar; init work is priced separately by simgpu).
type HostProfile struct {
	Sim            simhw.Result
	CompileSeconds float64
}

// CompileSim replays the compile and init host events on a machine's CPU
// model, giving the platform-specific XLA compile time and the Table V
// counters.
func (s *Suite) CompileSim(mach platform.Machine, n int) (HostProfile, error) {
	_, events, err := s.XLAArtifacts(n)
	if err != nil {
		return HostProfile{}, err
	}
	tw := simhw.ThreadWork{}
	for _, ev := range events {
		fw := simhw.FuncWork{
			Func:           ev.Func.String(),
			Instructions:   ev.Instructions,
			Bytes:          ev.Bytes,
			Branches:       ev.Branches,
			BranchMissRate: ev.Func.BranchMissRate(),
			Pattern:        ev.Func.Pattern(),
			HotBytes:       ev.WorkingSet,
			Allocated:      ev.Allocated,
		}
		if ev.Func == metering.ByteSizeOf {
			// Shape metadata is pointer-chased across the whole runtime
			// heap, which is what defeats even the server's TLB reach
			// (Table V's dTLB row).
			fw.HotBytes = 8 << 30
		}
		tw.Funcs = append(tw.Funcs, fw)
	}
	// Host-side data loading during init: weights and compiled artifacts
	// stream from disk/page cache into pinned buffers (the copy_to_iter
	// row of Table V).
	const weightBytes = 2 << 30
	tw.Funcs = append(tw.Funcs, simhw.FuncWork{
		Func:         "copy_to_iter",
		Instructions: weightBytes / 2,
		Bytes:        2 * weightBytes,
		StreamBytes:  weightBytes,
		Pattern:      metering.Sequential,
	})
	// The remaining JAX/CUDA runtime activity (thread pools, driver,
	// Python). Its footprint constants are calibrated once so the Table V
	// shares of the named symbols land in the paper's ranges; everything
	// sample-dependent (graph size, buffer allocation) varies naturally.
	tw.Funcs = append(tw.Funcs, simhw.FuncWork{
		Func:           "jax_runtime_other",
		Instructions:   4e10,
		Bytes:          2.4e11,
		Branches:       8e9,
		BranchMissRate: 0.01,
		Pattern:        metering.Random,
		HotBytes:       (3 << 30) + (200 << 20), // just past the server's TLB reach
		Allocated:      11 << 29,                // 5.5 GiB of allocator churn
	})
	spec := simhw.RunSpec{Machine: mach, Threads: []simhw.ThreadWork{tw}}
	res := simhw.Simulate(spec)
	// The compile bar of Figure 8 covers only the compiler's own work
	// (passes, shape inference, buffer assignment), scaled by the device
	// generation's autotuning factor; the rest of the host profile is
	// init-phase activity that simgpu prices separately.
	var compileCycles float64
	for _, fn := range []metering.Func{metering.CompilePasses, metering.ByteSizeOf, metering.FillInsert} {
		compileCycles += float64(res.PerFunc[fn.String()].Cycles)
	}
	hz := mach.CPU.MaxClockGHz * 1e9
	return HostProfile{
		Sim:            res,
		CompileSeconds: compileCycles / hz * mach.GPU.CompileFactor,
	}, nil
}

// jitter returns a deterministic multiplicative noise factor for run
// index i with the given relative magnitude (models the paper's run-to-run
// variation: CV ≤ 5% for MSA, ≤ 1% for inference).
func (s *Suite) jitter(sample string, runIdx int, magnitude float64) float64 {
	src := rng.New(s.Seed)
	for _, c := range []byte(sample) {
		src = src.Split(uint64(c))
	}
	src = src.Split(uint64(runIdx))
	return 1 + magnitude*(2*src.Float64()-1)
}

// resilienceSource derives the fault-injection/backoff source for one run.
// It follows jitter's (seed, sample, run index) split path with one extra
// distinct key so backoff draws never correlate with timing noise.
func (s *Suite) resilienceSource(sample string, runIdx int) *rng.Source {
	src := rng.New(s.Seed)
	for _, c := range []byte(sample) {
		src = src.Split(uint64(c))
	}
	return src.Split(uint64(runIdx)).Split(0xFA)
}

// memVerdict pre-checks a run the way the Section VI estimator proposes.
func memVerdict(in *inputs.Input, mach platform.Machine, threads int) memest.Estimate {
	return memest.Check(in, mach, threads)
}

// reservedAppBytes is the anonymous application memory the pipeline holds
// while streaming databases (search arenas, features, runtime).
func reservedAppBytes(in *inputs.Input, threads int) int64 {
	est := memest.ProteinPeakBytes(in.MaxProteinLength(), threads) + memest.RNAPeakBytes(in.MaxRNALength())
	return est + 8<<30
}

// newStorage builds the storage system for one pipeline run.
func newStorage(in *inputs.Input, mach platform.Machine, threads int) *simio.System {
	return simio.New(mach, reservedAppBytes(in, threads))
}
