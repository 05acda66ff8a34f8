package main

// The -batch-sweep mode: where does cross-request batching move the
// serving tier from compile-dominated to compute-dominated? The paper's
// Figure 8 shows device init + XLA compile taking >75% of GPU time for
// small inputs on the server platform; batching amortizes those fixed
// costs across members, so past some batch size the dispatch is mostly
// real kernel work. The sweep reports that crossover three ways:
//
//   - a modeled curve straight from the simgpu pricing — overhead fraction
//     vs batch size for a representative small input, both for the first
//     dispatch of a bucket (which also pays XLA compile) and the steady
//     state (compiled-graph cache hit);
//   - a measured offered-load sweep — live in-process cold-model servers
//     at increasing closed-loop client counts, reporting the realized mean
//     batch size, aggregate overhead fraction, compile-cache hit rate and
//     padding waste;
//   - a bucket-count sweep — the padding-waste vs compile-sharing tradeoff
//     as the shape policy coarsens from one catch-all bucket to the stock
//     eight.
//
// With -json the whole thing lands as the batch_crossover section of
// BENCH_serve.json (merged into the existing document, afcluster-style).
// The sweep is also a gate: it exits non-zero unless the modeled unbatched
// overhead exceeds 75% (the Figure 8 regime) and batching reaches <50%
// overhead within the memory-footprint batch cap.

import (
	"fmt"
	"os"

	"afsysbench/internal/batch"
	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
	"afsysbench/internal/scenario"
	"afsysbench/internal/serve"
	"afsysbench/internal/simgpu"
)

// curvePoint is one batch size on the modeled crossover curve.
type curvePoint struct {
	Batch int `json:"batch"`
	// FirstTotal/FirstOverhead price the bucket's first dispatch: cold
	// container init + XLA compile + batched compute.
	FirstTotal    float64 `json:"first_total_seconds"`
	FirstOverhead float64 `json:"first_overhead_fraction"`
	// SteadyTotal/SteadyOverhead price a compiled-graph cache hit: init
	// per dispatch, no compile.
	SteadyTotal    float64 `json:"steady_total_seconds"`
	SteadyOverhead float64 `json:"steady_overhead_fraction"`
	// PerRequestSeconds is the steady-state amortized member charge.
	PerRequestSeconds float64 `json:"per_request_seconds"`
}

// loadPoint is one offered-load level of the measured sweep.
type loadPoint struct {
	Concurrency    int     `json:"concurrency"`
	MeanBatchSize  float64 `json:"mean_batch_size"`
	Overhead       float64 `json:"overhead_fraction"`
	CompileHitRate float64 `json:"compile_hit_rate"`
	PaddingWaste   float64 `json:"padding_waste_pct"`
	Throughput     float64 `json:"throughput_rps"`
}

// bucketPoint is one shape-policy granularity of the bucket-count sweep.
type bucketPoint struct {
	Buckets       []int   `json:"buckets"`
	BucketCount   int     `json:"bucket_count"`
	PaddingWaste  float64 `json:"padding_waste_pct"`
	CompileMisses uint64  `json:"compile_misses"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	Overhead      float64 `json:"overhead_fraction"`
}

// crossoverSection is the batch_crossover block of BENCH_serve.json.
type crossoverSection struct {
	Machine string `json:"machine"`
	// Sample/Tokens/Bucket identify the representative small input the
	// modeled curve prices; MaxBatch is the memory-footprint cap at that
	// bucket.
	Sample   string `json:"sample"`
	Tokens   int    `json:"tokens"`
	Bucket   int    `json:"bucket"`
	MaxBatch int    `json:"max_batch"`
	// UnbatchedOverhead is the modeled B=1 first-dispatch overhead — the
	// Figure 8 regime the gate requires to exceed 0.75.
	UnbatchedOverhead float64 `json:"unbatched_overhead_fraction"`
	// CrossoverFirst/CrossoverSteady are the smallest batch sizes whose
	// modeled overhead drops below 0.5 (0 = never within the cap).
	CrossoverFirst  int          `json:"crossover_batch_first"`
	CrossoverSteady int          `json:"crossover_batch_steady"`
	ModelCurve      []curvePoint `json:"model_curve"`
	// OfferedLoad is the measured closed-loop sweep; BucketSweep the
	// measured shape-policy granularity sweep.
	OfferedLoad []loadPoint   `json:"offered_load"`
	BucketSweep []bucketPoint `json:"bucket_sweep"`
}

// sweepBucketSets are the shape policies the bucket-count sweep compares:
// one catch-all bucket (max compile sharing, max padding) through the
// stock eight (fine padding, more compiles).
func sweepBucketSets() [][]int {
	return [][]int{
		{2048},
		{512, 2048},
		{256, 512, 1024, 2048},
		batch.DefaultBuckets(),
	}
}

// modelCurve prices the crossover curve for tokens padded to bucket on
// mach, up to the memory-footprint cap (clamped to 16 points).
func modelCurve(suite *core.Suite, mach platform.Machine, threads, bucket, cap int) ([]curvePoint, error) {
	hp, err := suite.CompileSim(mach, bucket)
	if err != nil {
		return nil, err
	}
	points := cap
	if points > 16 {
		points = 16
	}
	curve := make([]curvePoint, 0, points)
	for b := 1; b <= points; b++ {
		first, err := simgpu.BatchedInference(mach, suite.Model, bucket, b, simgpu.InferenceOptions{
			Threads: threads, CompileSeconds: hp.CompileSeconds,
		})
		if err != nil {
			return nil, err
		}
		steady, err := simgpu.BatchedInference(mach, suite.Model, bucket, b, simgpu.InferenceOptions{
			Threads: threads,
		})
		if err != nil {
			return nil, err
		}
		curve = append(curve, curvePoint{
			Batch:             b,
			FirstTotal:        first.Total(),
			FirstOverhead:     first.OverheadFraction(),
			SteadyTotal:       steady.Total(),
			SteadyOverhead:    steady.OverheadFraction(),
			PerRequestSeconds: steady.Total() / float64(b),
		})
	}
	return curve, nil
}

// measuredPass drives one live cold-model batching server and returns its
// batch report plus throughput. The sweep owns the whole BatchConfig,
// bucket set included.
func measuredPass(o options, suite *core.Suite, trace []string, concurrency int, buckets []int) (serve.LoadStats, error) {
	st, err := closedPass(suite, o.Flags, func(c *serve.Config) {
		c.ColdModel = true
		c.Batch = serve.BatchConfig{Enabled: true, Buckets: buckets}
	}, trace, concurrency, fmt.Sprintf("batch-c%d", concurrency), false)
	if err == nil && st.Batch == nil {
		err = fmt.Errorf("batch report missing from the measured pass at concurrency %d", concurrency)
	}
	return st, err
}

// runBatchSweep is the -batch-sweep entry point.
func runBatchSweep(o options, out *os.File) error {
	suite, err := core.NewSuite()
	if err != nil {
		return err
	}
	mach, err := platform.ByName(o.Machine)
	if err != nil {
		return err
	}

	// The stock afload mix (promo:1,1YY9:9) has no genuinely small input —
	// its smallest complex pads to bucket 1024, where compile is already
	// only half the dispatch. The sweep is about the Figure 8 small-input
	// regime, so when the caller didn't pick a mix, use one dominated by
	// the small monomers.
	mix := o.mix
	if !o.mixSet {
		mix = "2PV7:3,7RCE:2,1YY9:1"
	}
	samples, _, err := inputs.ParseMix(mix)
	if err != nil {
		return err
	}
	// The representative input the modeled curve prices is the smallest
	// sample of the mix — the one deepest in the compile-dominated regime.
	in, err := inputs.ByName(samples[0])
	if err != nil {
		return err
	}
	for _, name := range samples[1:] {
		cand, err := inputs.ByName(name)
		if err != nil {
			return err
		}
		if cand.TotalResidues() < in.TotalResidues() {
			in = cand
		}
	}
	tokens := in.TotalResidues()
	bucket := batch.Default().PadTo(tokens)
	cap := suite.Model.MaxBatch(mach, bucket)

	curve, err := modelCurve(suite, mach, o.Threads, bucket, cap)
	if err != nil {
		return err
	}
	section := &crossoverSection{
		Machine:           o.Machine,
		Sample:            in.Name,
		Tokens:            tokens,
		Bucket:            bucket,
		MaxBatch:          cap,
		UnbatchedOverhead: curve[0].FirstOverhead,
		ModelCurve:        curve,
	}
	for _, p := range curve {
		if section.CrossoverFirst == 0 && p.FirstOverhead < 0.5 {
			section.CrossoverFirst = p.Batch
		}
		if section.CrossoverSteady == 0 && p.SteadyOverhead < 0.5 {
			section.CrossoverSteady = p.Batch
		}
	}
	fmt.Fprintf(out, "batch-sweep %s: %s (%d tokens -> bucket %d), memory cap %d\n",
		o.Machine, in.Name, tokens, bucket, cap)
	fmt.Fprintf(out, "  modeled: unbatched overhead %.1f%%; <50%% at batch %d (first dispatch), %d (steady)\n",
		100*section.UnbatchedOverhead, section.CrossoverFirst, section.CrossoverSteady)
	for _, p := range curve {
		fmt.Fprintf(out, "  B=%-3d first %.0fs (%.1f%% overhead) | steady %.0fs (%.1f%% overhead) | %.1fs/request\n",
			p.Batch, p.FirstTotal, 100*p.FirstOverhead, p.SteadyTotal, 100*p.SteadyOverhead, p.PerRequestSeconds)
	}

	// Measured offered-load sweep: one live server per closed-loop client
	// count, stock buckets.
	trace, err := scenario.Trace(mix, 0, o.n, o.seed)
	if err != nil {
		return err
	}
	for _, conc := range []int{1, 2, 4, 8} {
		st, err := measuredPass(o, suite, trace, conc, nil)
		if err != nil {
			return err
		}
		b := st.Batch
		section.OfferedLoad = append(section.OfferedLoad, loadPoint{
			Concurrency:    conc,
			MeanBatchSize:  b.MeanBatchSize,
			Overhead:       b.OverheadFraction,
			CompileHitRate: b.CompileCache.HitRate(),
			PaddingWaste:   b.PaddingWastePct,
			Throughput:     st.Throughput,
		})
		fmt.Fprintf(out, "  load c=%d: mean batch %.2f, overhead %.1f%%, compile hit rate %.0f%%, waste %.1f%%, %.2f req/s\n",
			conc, b.MeanBatchSize, 100*b.OverheadFraction, 100*b.CompileCache.HitRate(), b.PaddingWastePct, st.Throughput)
	}

	// Bucket-count sweep at the flag concurrency: padding waste falls and
	// compile count rises as the policy refines.
	for _, buckets := range sweepBucketSets() {
		st, err := measuredPass(o, suite, trace, o.concurrency, buckets)
		if err != nil {
			return err
		}
		b := st.Batch
		section.BucketSweep = append(section.BucketSweep, bucketPoint{
			Buckets:       b.Buckets,
			BucketCount:   len(b.Buckets),
			PaddingWaste:  b.PaddingWastePct,
			CompileMisses: b.CompileCache.Misses,
			MeanBatchSize: b.MeanBatchSize,
			Overhead:      b.OverheadFraction,
		})
		fmt.Fprintf(out, "  buckets %v: waste %.1f%%, %d compiles, mean batch %.2f, overhead %.1f%%\n",
			b.Buckets, b.PaddingWastePct, b.CompileCache.Misses, b.MeanBatchSize, 100*b.OverheadFraction)
	}

	if o.jsonPath != "" {
		if err := serve.MergeSection(o.jsonPath, "batch_crossover", section); err != nil {
			return err
		}
		fmt.Fprintf(out, "merged batch_crossover into %s\n", o.jsonPath)
	}

	// The gate: the sweep must reproduce the Figure 8 regime (>75%
	// overhead unbatched for a small input) and batching must buy its way
	// out of it (<50% overhead at some batch size within the memory cap).
	if section.UnbatchedOverhead <= 0.75 {
		return fmt.Errorf("unbatched overhead %.1f%% does not reach the paper's >75%% small-input regime",
			100*section.UnbatchedOverhead)
	}
	if section.CrossoverFirst == 0 || section.CrossoverSteady == 0 {
		return fmt.Errorf("batching never crossed below 50%% overhead within the memory cap %d", cap)
	}
	fmt.Fprintf(out, "batch-sweep gate: PASS (unbatched %.1f%% > 75%%, crossover at batch %d < cap %d)\n",
		100*section.UnbatchedOverhead, section.CrossoverFirst, cap)
	return nil
}
