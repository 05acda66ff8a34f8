// Benchmark harness: one benchmark per table and figure of the paper plus
// real-kernel microbenchmarks and the DESIGN.md ablations. The per-artifact
// benchmarks regenerate the same rows/series the paper reports (simulated
// platform seconds); the kernel benchmarks measure the real Go
// implementations' wall time so regressions in the substrates are visible.
package afsysbench

import (
	"fmt"
	"sync"
	"testing"

	"afsysbench/internal/core"
	"afsysbench/internal/diffusion"
	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
	"afsysbench/internal/msa"
	"afsysbench/internal/pairformer"
	"afsysbench/internal/platform"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
	"afsysbench/internal/seqdb"
	"afsysbench/internal/simhw"
	"afsysbench/internal/simio"
	"afsysbench/internal/xla"
)

var (
	benchOnce  sync.Once
	benchSuite *core.Suite
	benchErr   error
)

func suite(b *testing.B) *core.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite, benchErr = core.NewSuite()
		if benchErr == nil {
			benchSuite.Runs = 1
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

// ---- Tables I and II -------------------------------------------------

// BenchmarkTable1Platforms regenerates the Table I platform definitions.
func BenchmarkTable1Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(platform.All()) != 4 {
			b.Fatal("platform set wrong")
		}
	}
}

// BenchmarkTable2Samples regenerates the Table II sample set.
func BenchmarkTable2Samples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		samples := inputs.Samples()
		if len(samples) != 5 || samples[4].TotalResidues() != 1395 {
			b.Fatal("sample set wrong")
		}
	}
}

// ---- Figures 2-9 ------------------------------------------------------

// BenchmarkFigure2MemoryCurve regenerates the RNA-length memory sweep.
func BenchmarkFigure2MemoryCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.Figure2()
		if len(rows) != 4 {
			b.Fatal("figure 2 rows wrong")
		}
	}
	rows := core.Figure2()
	b.ReportMetric(rows[1].PeakGiB/rows[0].PeakGiB, "memGrowth_621to935")
}

// BenchmarkFigure3EndToEnd regenerates the full stacked-bar matrix:
// five samples x two platforms x five thread counts.
func BenchmarkFigure3EndToEnd(b *testing.B) {
	s := suite(b)
	var rows []core.PhaseRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure3(core.SampleNames(), core.TwoPlatforms(), core.MSAThreadSweep)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Shape metric: MSA share of the end-to-end time at 8 threads, 6QNR
	// on the server (the paper's 94% extreme).
	for _, r := range rows {
		if r.Sample == "6QNR" && r.Machine == "Server" && r.Threads == 8 {
			b.ReportMetric(100*r.MSASeconds/r.Total(), "msaShare6QNRpct")
		}
	}
}

// BenchmarkFigure4MSAScaling regenerates the per-sample MSA scaling curves.
func BenchmarkFigure4MSAScaling(b *testing.B) {
	s := suite(b)
	names := []string{"2PV7", "7RCE", "1YY9", "promo"}
	var rows []core.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure4(names, core.TwoPlatforms())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Sample == "2PV7" && r.Machine == "Desktop" && r.Threads == 2 {
			b.ReportMetric(r.Speedup, "speedup2T")
		}
	}
}

// BenchmarkFigure5SixQNRScaling regenerates the 6QNR deep-dive.
func BenchmarkFigure5SixQNRScaling(b *testing.B) {
	s := suite(b)
	var rows []core.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	var best float64
	for _, r := range rows {
		if r.Speedup > best {
			best = r.Speedup
		}
	}
	b.ReportMetric(best, "peakSpeedup")
	b.ReportMetric(rows[len(rows)-1].Speedup, "speedup8T")
}

// BenchmarkFigure6InferenceThreads regenerates inference time vs threads.
func BenchmarkFigure6InferenceThreads(b *testing.B) {
	s := suite(b)
	names := []string{"2PV7", "1YY9", "promo"}
	var rows []core.InferenceRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure6(names, core.TwoPlatforms())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].Seconds/rows[len(rows)-len(core.InferenceThreadSweep)].Seconds, "degradation1to6T")
}

// BenchmarkFigure7PhaseShares regenerates the optimal-thread phase split.
func BenchmarkFigure7PhaseShares(b *testing.B) {
	s := suite(b)
	var rows []core.ShareRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure7(core.SampleNames(), core.TwoPlatforms())
		if err != nil {
			b.Fatal(err)
		}
	}
	var minShare float64 = 100
	for _, r := range rows {
		if r.MSAPct < minShare {
			minShare = r.MSAPct
		}
	}
	b.ReportMetric(minShare, "minMSASharePct")
}

// BenchmarkFigure8InferenceBreakdown regenerates the init/compile/compute
// decomposition.
func BenchmarkFigure8InferenceBreakdown(b *testing.B) {
	s := suite(b)
	var rows []core.BreakdownRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure8([]string{"2PV7", "1YY9", "promo"}, core.TwoPlatforms())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Sample == "2PV7" && r.Machine == "Server" {
			b.ReportMetric(r.OverheadPct(), "serverOverheadPct")
		}
		if r.Sample == "2PV7" && r.Machine == "Desktop" {
			b.ReportMetric(r.Compute, "desktopComputeSec")
		}
	}
}

// BenchmarkFigure9LayerBreakdown regenerates the Pairformer/Diffusion pie.
func BenchmarkFigure9LayerBreakdown(b *testing.B) {
	s := suite(b)
	var rows []core.LayerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure9()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Sample == "2PV7" && r.Layer == "global attention" {
			b.ReportMetric(r.SharePct, "globalAttnSharePct")
		}
	}
}

// ---- Tables III-VI ----------------------------------------------------

// BenchmarkTable3CPUMetrics regenerates the CPU counter comparison.
func BenchmarkTable3CPUMetrics(b *testing.B) {
	s := suite(b)
	var cells []core.Table3Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = s.Table3([]string{"2PV7", "promo"})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		if c.Sample == "2PV7" && c.Machine == "Server" && c.Threads == 1 {
			b.ReportMetric(c.IPC, "intelIPC1T")
			b.ReportMetric(c.LLCPct, "intelLLCMissPct1T")
		}
		if c.Sample == "2PV7" && c.Machine == "Desktop" && c.Threads == 6 {
			b.ReportMetric(c.LLCPct, "amdLLCMissPct6T")
			b.ReportMetric(c.DTLBPct, "amdDTLBPct6T")
		}
	}
}

// BenchmarkTable4FunctionProfile regenerates the function-level shares.
func BenchmarkTable4FunctionProfile(b *testing.B) {
	s := suite(b)
	var rows []core.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Table4([]string{"2PV7", "promo"})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Metric == "cycles" && r.Function == "calc_band_9" {
			b.ReportMetric(r.SharePct["2PV7/1T"], "calcBand9CyclesPct")
		}
		if r.Metric == "cache-misses" && r.Function == "copy_to_iter" {
			b.ReportMetric(r.SharePct["2PV7/1T"], "copyToIterMissPct1T")
			b.ReportMetric(r.SharePct["2PV7/4T"], "copyToIterMissPct4T")
		}
	}
}

// BenchmarkTable5InferenceBottlenecks regenerates the host-side profile.
func BenchmarkTable5InferenceBottlenecks(b *testing.B) {
	s := suite(b)
	var rows []core.Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Table5([]string{"2PV7", "promo"})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Symbol == "std::vector::_M_fill_insert" && r.Sample == "2PV7" {
			b.ReportMetric(r.OverheadPct, "fillInsertFaultPct")
		}
	}
}

// BenchmarkTable6LayerTimes regenerates the layer-wise execution table.
func BenchmarkTable6LayerTimes(b *testing.B) {
	s := suite(b)
	var rows []core.Table6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Table6()
		if err != nil {
			b.Fatal(err)
		}
	}
	var pf, df float64
	for _, r := range rows {
		switch r.Label {
		case "Pairformer":
			pf = r.Per2PV7Seconds
		case "Diffusion":
			df = r.Per2PV7Seconds
		}
	}
	b.ReportMetric(df/pf, "diffusionOverPairformer")
}

// ---- Real-kernel microbenchmarks (wall time of the Go substrates) -----

func benchQueryTarget(n, m int) (*hmmer.Profile, *seq.Sequence) {
	g := seq.NewGenerator(rng.New(42))
	q := g.Random("q", seq.Protein, n)
	t := g.Mutate(q, "t", 0.3)
	t.Residues = t.Residues[:m]
	p, err := hmmer.BuildFromQuery(q)
	if err != nil {
		panic(err)
	}
	return p, t
}

// BenchmarkKernelBandedViterbi measures the calc_band DP kernels.
func BenchmarkKernelBandedViterbi(b *testing.B) {
	p, t := benchQueryTarget(484, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hmmer.BandedViterbi(p, t, 0, hmmer.BandHalfWidth, metering.Nop{})
	}
	res := hmmer.BandedViterbi(p, t, 0, hmmer.BandHalfWidth, metering.Nop{})
	b.ReportMetric(float64(res.Cells), "cells/op")
}

// BenchmarkKernelFullViterbi measures the unbanded reference DP.
func BenchmarkKernelFullViterbi(b *testing.B) {
	p, t := benchQueryTarget(484, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hmmer.FullViterbi(p, t, metering.Nop{})
	}
}

// BenchmarkKernelForward measures banded Forward scoring.
func BenchmarkKernelForward(b *testing.B) {
	p, t := benchQueryTarget(484, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hmmer.Forward(p, t, 0, hmmer.BandHalfWidth, metering.Nop{})
	}
}

// BenchmarkKernelDBScan measures a full single-threaded database pass.
func BenchmarkKernelDBScan(b *testing.B) {
	g := seq.NewGenerator(rng.New(7))
	query := g.Random("q", seq.Protein, 242)
	db, err := seqdb.Generate(seqdb.Spec{
		Name: "bench", Type: seq.Protein, NumSeqs: 100, MeanLen: 200,
		Homologs: []*seq.Sequence{query}, HomologsPerQuery: 4, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := hmmer.SearchProtein(query, func() hmmer.RecordSource {
			return &hmmer.SliceSource{Seqs: db.Seqs}
		}, db.TotalResidues(), hmmer.SearchOptions{Iterations: 1}, metering.Nop{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelPairformerBlock measures one real Pairformer block at a
// reduced size (the modules run real math; costs extrapolate analytically).
func BenchmarkKernelPairformerBlock(b *testing.B) {
	cfg := pairformer.Config{
		Blocks: 1, PairDim: 16, SingleDim: 32, Heads: 2, HeadDim: 8,
		TriHidden: 16, TransMult: 2,
	}
	src := rng.New(3)
	blk, err := pairformer.NewBlock(cfg, src)
	if err != nil {
		b.Fatal(err)
	}
	s := pairformer.RandomState(cfg, 48, src.Split(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := blk.Apply(s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelDiffusionStep measures one real denoiser evaluation.
func BenchmarkKernelDiffusionStep(b *testing.B) {
	cfg := diffusion.Config{
		Samples: 1, Steps: 1, TokenDim: 32, AtomDim: 16, AtomsPerToken: 4,
		AtomWindow: 12, GlobalLayers: 2, LocalEncLayers: 2, LocalDecLayers: 2, Heads: 2,
	}
	src := rng.New(5)
	d, err := diffusion.NewDenoiser(cfg, src)
	if err != nil {
		b.Fatal(err)
	}
	coords, err := d.Sample(32, src.Split(1), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DenoiseStep(coords, 0.5, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelXLACompile measures the real graph passes at AF3 scale.
func BenchmarkKernelXLACompile(b *testing.B) {
	pf := pairformer.DefaultConfig()
	df := diffusion.DefaultConfig()
	for i := 0; i < b.N; i++ {
		g := xla.BuildInferenceGraph(pf, df, 484, 10)
		if _, err := xla.Compile(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelMSAPipeline measures the real multi-threaded MSA pass.
func BenchmarkKernelMSAPipeline(b *testing.B) {
	dbs, err := msa.BuildDBSet(inputs.Samples(), msa.DefaultDBConfig())
	if err != nil {
		b.Fatal(err)
	}
	in, _ := inputs.ByName("2PV7")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := msa.Run(in, msa.Options{Threads: 4, DBs: dbs}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (DESIGN.md section 4) -----------------------------------

// BenchmarkAblationCacheModel compares the analytical capacity model
// against the trace-driven set-associative simulator on the same access
// statistics: speed here, agreement checked in simhw's tests.
func BenchmarkAblationCacheModel(b *testing.B) {
	b.Run("analytic", func(b *testing.B) {
		work := simhw.FuncWork{
			Func: "calc_band_9", Instructions: 1e8, Bytes: 4e8,
			Pattern: metering.Strided, HotBytes: 40 << 20,
		}
		spec := simhw.RunSpec{
			Machine: platform.Server(),
			Threads: []simhw.ThreadWork{{Funcs: []simhw.FuncWork{work}}},
		}
		for i := 0; i < b.N; i++ {
			simhw.Simulate(spec)
		}
	})
	b.Run("trace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simhw.TraceMissRates(1, 40<<20, metering.Strided, 200_000, 48<<10, 2<<20, 30<<20)
		}
	})
}

// BenchmarkAblationBandWidth sweeps the Viterbi band half-width: wider
// bands recover more score but cost proportionally more cells.
func BenchmarkAblationBandWidth(b *testing.B) {
	p, t := benchQueryTarget(484, 400)
	full := hmmer.FullViterbi(p, t, metering.Nop{})
	for _, hw := range []int{3, 9, 27, 81} {
		b.Run(bandName(hw), func(b *testing.B) {
			var res hmmer.AlignResult
			for i := 0; i < b.N; i++ {
				res = hmmer.BandedViterbi(p, t, 0, hw, metering.Nop{})
			}
			b.ReportMetric(float64(res.Cells), "cells/op")
			b.ReportMetric(100*float64(res.Score)/float64(full.Score), "scoreRecoveryPct")
		})
	}
}

func bandName(hw int) string {
	switch hw {
	case 3:
		return "halfWidth3"
	case 9:
		return "halfWidth9"
	case 27:
		return "halfWidth27"
	default:
		return "halfWidth81"
	}
}

// BenchmarkAblationWarmStart compares cold per-request inference against
// the Section VI persistent-model server.
func BenchmarkAblationWarmStart(b *testing.B) {
	s := suite(b)
	in, _ := inputs.ByName("2PV7")
	run := func(b *testing.B, warm bool) {
		var total float64
		for i := 0; i < b.N; i++ {
			pb, err := s.InferenceOnly(in, platform.Server(), warm)
			if err != nil {
				b.Fatal(err)
			}
			total = pb.Total()
		}
		b.ReportMetric(total, "inferenceSec")
	}
	b.Run("cold", func(b *testing.B) { run(b, false) })
	b.Run("warm", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationPreload compares demand-paged database streaming against
// the Section VI preloading strategy on the desktop (where the cache is
// short).
func BenchmarkAblationPreload(b *testing.B) {
	s := suite(b)
	in, _ := inputs.ByName("1YY9")
	run := func(b *testing.B, preload bool) {
		var disk float64
		for i := 0; i < b.N; i++ {
			pr, err := s.RunPipeline(in, platform.Server(), core.PipelineOptions{Threads: 4, PreloadDBs: preload})
			if err != nil {
				b.Fatal(err)
			}
			disk = pr.MSADiskSeconds
		}
		b.ReportMetric(disk, "inPhaseDiskSec")
	}
	b.Run("demandPaged", func(b *testing.B) { run(b, false) })
	b.Run("preloaded", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationAdaptiveThreads compares AF3's fixed 8-thread default
// against the adaptive per-input choice the paper recommends (Obs. 3).
func BenchmarkAblationAdaptiveThreads(b *testing.B) {
	s := suite(b)
	for _, name := range []string{"2PV7", "6QNR"} {
		in, _ := inputs.ByName(name)
		mach := core.MachineFor(in, platform.Desktop())
		b.Run(name, func(b *testing.B) {
			var fixed, adaptive float64
			for i := 0; i < b.N; i++ {
				pf, err := s.RunPipeline(in, mach, core.PipelineOptions{Threads: 8})
				if err != nil {
					b.Fatal(err)
				}
				fixed = pf.MSASeconds
				adaptive = fixed
				for _, t := range core.MSAThreadSweep {
					pr, err := s.RunPipeline(in, mach, core.PipelineOptions{Threads: t})
					if err != nil {
						b.Fatal(err)
					}
					if pr.MSASeconds < adaptive {
						adaptive = pr.MSASeconds
					}
				}
			}
			b.ReportMetric(fixed, "fixed8TSec")
			b.ReportMetric(adaptive, "adaptiveSec")
		})
	}
}

// BenchmarkAblationPageCache measures the storage model itself: cold scan
// vs cached re-scan.
func BenchmarkAblationPageCache(b *testing.B) {
	const dbBytes = int64(60) << 30
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := simio.New(platform.Server(), 8<<30)
			sys.ReadSequential("db", dbBytes)
		}
	})
	b.Run("warm", func(b *testing.B) {
		sys := simio.New(platform.Server(), 8<<30)
		sys.ReadSequential("db", dbBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.ReadSequential("db", dbBytes)
		}
	})
}

// BenchmarkKernelTracebackAlign measures the traceback-recording DP kernel.
func BenchmarkKernelTracebackAlign(b *testing.B) {
	p, t := benchQueryTarget(484, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hmmer.BandedViterbiAlign(p, t, 0, hmmer.BandHalfWidth, metering.Nop{})
	}
}

// BenchmarkKernelSensitivity measures the search-quality harness (a full
// planted-homolog evaluation per iteration).
func BenchmarkKernelSensitivity(b *testing.B) {
	rates := []float64{0.05, 0.2, 0.4}
	var rep *hmmer.SensitivityReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = hmmer.EvaluateSensitivity(rates, hmmer.SensitivityOptions{Seed: 1, Decoys: 100})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Points[0].Recovery(), "recoveryAt5pct")
	b.ReportMetric(rep.FalsePositiveRate(), "falsePositiveRate")
}

// BenchmarkBatchDeployments regenerates the batch-scheduler comparison (the
// §VI + ParaFold extension).
func BenchmarkBatchDeployments(b *testing.B) {
	s := suite(b)
	queue := []string{"2PV7", "1YY9", "7RCE", "2PV7"}
	var seq, pipe *core.BatchResult
	for i := 0; i < b.N; i++ {
		var err error
		seq, err = s.RunBatch(queue, platform.Server(), core.BatchOptions{Threads: 6})
		if err != nil {
			b.Fatal(err)
		}
		pipe, err = s.RunBatch(queue, platform.Server(), core.BatchOptions{Threads: 6, Pipelined: true, WarmModel: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(seq.Makespan/pipe.Makespan, "pipelineSpeedup")
}

// BenchmarkModelValidation runs the analytic-vs-trace cache cross-check.
func BenchmarkModelValidation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		var err error
		// Factor 1 compares raw cache geometry (the vendor L1MissFactor
		// models prefetch/op-cache effects the plain LRU trace lacks).
		worst, err = simhw.ValidateRegimes(metering.Random, 48<<10, 2<<20, 30<<20, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(worst, "worstLLCDivergence")
}

// BenchmarkAblationGappedRebuild compares the gapped (traceback-based)
// profile rebuild against the ungapped diagonal projection it replaced:
// hits recruited by the round-2 profile built each way.
func BenchmarkAblationGappedRebuild(b *testing.B) {
	g := seq.NewGenerator(rng.New(71))
	query := g.Random("q", seq.Protein, 200)
	db, err := seqdb.Generate(seqdb.Spec{
		Name: "reb", Type: seq.Protein, NumSeqs: 80, MeanLen: 200,
		Homologs: []*seq.Sequence{query}, HomologsPerQuery: 8, Seed: 72,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Add indel-bearing relatives: the case where the diagonal projection
	// misaligns everything downstream of the gap and the traceback does not.
	for k := 0; k < 6; k++ {
		mut := g.Mutate(query, fmt.Sprintf("indel%02d", k), 0.1)
		pos := 40 + 20*k
		res := append([]byte(nil), mut.Residues[:pos]...)
		res = append(res, g.Random("ins", seq.Protein, 3).Residues...)
		res = append(res, mut.Residues[pos:]...)
		db.Seqs = append(db.Seqs, &seq.Sequence{ID: mut.ID, Type: seq.Protein, Residues: res})
	}
	round1, err := hmmer.SearchProtein(query, func() hmmer.RecordSource {
		return &hmmer.SliceSource{Seqs: db.Seqs}
	}, db.TotalResidues(), hmmer.SearchOptions{Iterations: 1}, metering.Nop{})
	if err != nil {
		b.Fatal(err)
	}

	round2hits := func(stripAlignments bool) float64 {
		hits := append([]hmmer.Hit(nil), round1.Hits...)
		if stripAlignments {
			for i := range hits {
				hits[i].Alignment = nil // falls back to diagonal projection
			}
		}
		rows := hmmer.BuildHitAlignment(query, hits, 1e-3)
		prof, err := hmmer.BuildFromAlignment(query.ID, query.Type, rows)
		if err != nil {
			b.Fatal(err)
		}
		res, err := hmmer.ScanRecords(prof, query, &hmmer.SliceSource{Seqs: db.Seqs},
			db.TotalResidues(), hmmer.SearchOptions{}, metering.Nop{})
		if err != nil {
			b.Fatal(err)
		}
		return float64(len(res.Hits))
	}

	b.Run("gapped", func(b *testing.B) {
		var n float64
		for i := 0; i < b.N; i++ {
			n = round2hits(false)
		}
		b.ReportMetric(n, "round2Hits")
	})
	b.Run("diagonal", func(b *testing.B) {
		var n float64
		for i := 0; i < b.N; i++ {
			n = round2hits(true)
		}
		b.ReportMetric(n, "round2Hits")
	})
}
