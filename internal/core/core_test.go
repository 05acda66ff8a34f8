package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/memest"
	"afsysbench/internal/metering"
	"afsysbench/internal/msa"
	"afsysbench/internal/parallel"
	"afsysbench/internal/platform"
	"afsysbench/internal/seq"
)

var (
	suiteOnce sync.Once
	suiteInst *Suite
	suiteErr  error
)

func suite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suiteInst, suiteErr = NewSuite()
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteInst
}

// shardOracle is the attribution the suite's MSA results are held to: an
// msa.ScatterFunc that scans each database serially over exactly
// req.Threads spans, parallel.Span(n, w, Threads) into req.Workers[w] — the
// decomposition the scan used while its goroutine count was the thread
// count — and adds every event each worker recorded, one by one, to
// workers[w]'s credits — each whole record's scaled seed event among them,
// which the worker keeps as a probe count — with each of its records'
// reader events (hmmer.ReaderEvents, scaled as the scan's events are),
// before the run re-cuts anything.
type shardOracle struct{ workers []*metering.Accumulator }

// tee records every event into both meters, and passes record starts and
// probe counts on: a meter that keeps probe counts takes them, the other
// records the seed event.
type tee [2]metering.Meter

func (m tee) Record(ev metering.Event) {
	m[0].Record(ev)
	m[1].Record(ev)
}

func (m tee) RecordStart() {
	metering.RecordStart(m[0])
	metering.RecordStart(m[1])
}

func (m tee) RecordProbes(probes uint64, ev metering.Event) {
	metering.RecordProbes(m[0], probes, ev)
	metering.RecordProbes(m[1], probes, ev)
}

// readerSource hands out src's records, recording each one's reader
// events into m as it does.
type readerSource struct {
	src       hmmer.RecordSource
	footprint uint64
	m         metering.Meter
}

func (s readerSource) Next() (*seq.Sequence, bool) {
	rec, ok := s.src.Next()
	if ok {
		for _, ev := range hmmer.ReaderEvents(uint64(len(rec.Residues)), s.footprint) {
			s.m.Record(ev)
		}
	}
	return rec, ok
}

// credited is a Meter that adds each event to an accumulator's credits.
type credited struct{ acc *metering.Accumulator }

func (c credited) Record(ev metering.Event) { c.acc.Credit[ev.Func].AddEvent(&ev) }

func (o *shardOracle) scatter(ctx context.Context, req msa.ScatterRequest) (*hmmer.Result, error) {
	n := len(req.DB.Seqs)
	parts := make([]*hmmer.Result, req.Threads)
	for w := range parts {
		lo, hi := parallel.Span(n, w, req.Threads)
		if lo == hi {
			continue
		}
		reader := metering.Scaled(credited{o.workers[w]}, req.ScaleFactor)
		src := readerSource{&hmmer.SliceSource{Seqs: req.DB.Seqs[lo:hi]}, uint64(req.DB.ModeledBytes()), reader}
		meter := metering.Scaled(tee{req.Workers[w], credited{o.workers[w]}}, req.ScaleFactor)
		var err error
		parts[w], err = hmmer.ScanRecordsCtx(ctx, req.Profile, req.Query, src, req.DB.TotalResidues(), req.Search, meter)
		if err != nil {
			return nil, err
		}
	}
	return hmmer.MergeResults(req.Query.ID, parts), nil
}

// TestSuiteRunsTheDefaultEngine pins "one engine": the suite's MSA run
// meters exactly what the shard oracle attributes, worker for worker, every
// worker's ledger the sums of the events the oracle's worker recorded — at
// every thread count, although the suite searches each
// sample once, at the first count asked for, and re-cuts that search for
// every other (msa.Result.Rethread). The first count differs per sample,
// so several source counts are re-cut; a profile with a database dropped is
// checked the same way.
func TestSuiteRunsTheDefaultEngine(t *testing.T) {
	s := newTestSuite(t)
	threads := []int{1, 2, 3, 4, 6, 8, 16}
	reduced := &msa.DBSet{Protein: s.DBs.Protein[:1], RNA: s.DBs.RNA[1:]}
	profiles := []struct {
		sig     string
		dbs     *msa.DBSet
		threads []int
	}{
		{"full", s.DBs, threads},
		{"reduced", reduced, []int{1, 3, 8, 16}},
	}
	for _, p := range profiles {
		for i, in := range inputs.Samples() {
			first := p.threads[i%len(p.threads)]
			order := append([]int{first}, p.threads...)
			for _, T := range order {
				view, err := s.msaResultFor(context.Background(), in, T, p.dbs, p.sig, false, msa.Options{})
				if err != nil {
					t.Fatal(err)
				}
				again, _ := s.msaResultFor(context.Background(), in, T, p.dbs, p.sig, false, msa.Options{})
				if again.res != view.res {
					t.Fatalf("%s %s at %dT: a repeat returned another result", p.sig, in.Name, T)
				}
				o := &shardOracle{workers: make([]*metering.Accumulator, T)}
				for w := range o.workers {
					o.workers[w] = &metering.Accumulator{}
				}
				if _, err := msa.Run(in, msa.Options{Threads: T, DBs: p.dbs, AllowMissingDB: true, Scatter: o.scatter}); err != nil {
					t.Fatal(err)
				}
				if len(view.res.Workers) != T {
					t.Fatalf("%s %s at %dT: %d workers", p.sig, in.Name, T, len(view.res.Workers))
				}
				for w, acc := range view.res.Workers {
					if acc.Ledger() != o.workers[w].Ledger() {
						t.Fatalf("%s %s at %dT (searched at %dT), worker %d: the ledger differs from the oracle's",
							p.sig, in.Name, T, first, w)
					}
				}
			}
			if e := s.msaMemo[in.Name+"/"+p.sig]; len(e.search.Workers) != first {
				t.Fatalf("%s %s: the memo searched at %dT, want %dT", p.sig, in.Name, len(e.search.Workers), first)
			}
		}
	}
}

func TestRunPipelineBasics(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	pr, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pr.MSASeconds <= 0 || pr.Inference.Total() <= 0 {
		t.Fatalf("phase times not positive: %+v", pr)
	}
	if pr.TotalSeconds() != pr.MSASeconds+pr.Inference.Total() {
		t.Error("total wrong")
	}
	if pr.MSAFraction() <= 0 || pr.MSAFraction() >= 1 {
		t.Errorf("MSA fraction = %v", pr.MSAFraction())
	}
	if pr.Memory.Verdict != memest.OK {
		t.Errorf("2PV7 memory verdict = %v", pr.Memory.Verdict)
	}
}

func TestMSADominatesEndToEnd(t *testing.T) {
	// Headline observation: MSA is 70–90%+ of end-to-end time.
	s := suite(t)
	for _, name := range []string{"2PV7", "1YY9", "6QNR"} {
		in, _ := inputs.ByName(name)
		for _, mach := range TwoPlatforms() {
			pr, err := s.RunPipeline(in, mach, PipelineOptions{Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			if f := pr.MSAFraction(); f < 0.60 {
				t.Errorf("%s on %s: MSA fraction %.2f, want dominant", name, mach.Name, f)
			}
		}
	}
}

func TestDesktopFasterEndToEnd(t *testing.T) {
	// Observation 1: the desktop consistently beats the server end to end.
	s := suite(t)
	for _, name := range []string{"2PV7", "1YY9", "promo"} {
		in, _ := inputs.ByName(name)
		srv, err := s.RunPipeline(in, platform.Server(), PipelineOptions{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		dsk, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if dsk.MSASeconds >= srv.MSASeconds {
			t.Errorf("%s: desktop MSA %.0fs not below server %.0fs", name, dsk.MSASeconds, srv.MSASeconds)
		}
	}
}

func TestStorageContrast(t *testing.T) {
	// Section V-B2c: server keeps databases cached (low disk util);
	// desktop cannot and re-streams (high util), without stalling the
	// pipeline.
	s := suite(t)
	in, _ := inputs.ByName("6QNR")
	srv, err := s.RunPipeline(in, platform.Server(), PipelineOptions{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	dsk, err := s.RunPipeline(in, platform.DesktopUpgraded(), PipelineOptions{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if srv.DiskUtilPct > 25 {
		t.Errorf("server disk util = %.0f%%, want low (<25%%)", srv.DiskUtilPct)
	}
	if dsk.DiskStats.ReadBytes <= srv.DiskStats.ReadBytes {
		t.Error("desktop must read more from disk than the server")
	}
	if dsk.MSASeconds > dsk.MSACPUSeconds*1.3 {
		t.Error("desktop I/O must not stall the pipeline badly (paper: no observable degradation)")
	}
}

func TestPreloadReducesDiskTimeInPhase(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("1YY9")
	mach := platform.Server()
	cold, err := s.RunPipeline(in, mach, PipelineOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.RunPipeline(in, mach, PipelineOptions{Threads: 4, PreloadDBs: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.MSADiskSeconds >= cold.MSADiskSeconds {
		t.Errorf("preload did not reduce in-phase disk time: %.1f vs %.1f",
			warm.MSADiskSeconds, cold.MSADiskSeconds)
	}
}

func TestWarmStartSkipsInferenceOverheads(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	cold, err := s.InferenceOnly(in, platform.Server(), false)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.InferenceOnly(in, platform.Server(), true)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Total() >= cold.Total()/2 {
		t.Errorf("warm start %.0fs not well below cold %.0fs (server overheads dominate)", warm.Total(), cold.Total())
	}
}

func TestProjectedOOMGate(t *testing.T) {
	s := suite(t)
	// The 1335-residue RNA input must be rejected up front on every
	// machine (paper: it OOM-killed even with CXL).
	sweep := inputs.RNASweep()
	big := sweep[len(sweep)-1]
	_, err := s.RunPipeline(big, platform.ServerWithCXL(), PipelineOptions{Threads: 8})
	var oom ErrProjectedOOM
	if !errors.As(err, &oom) {
		t.Fatalf("expected ErrProjectedOOM, got %v", err)
	}
	// The message must name the input, the machine, the projected peak and
	// the verdict — it is what the operator sees instead of the OOM killer.
	msg := oom.Error()
	for _, want := range []string{big.Name, platform.ServerWithCXL().Name, "projected to need", "GiB", memest.OOM.String()} {
		if !strings.Contains(msg, want) {
			t.Errorf("gate message %q missing %q", msg, want)
		}
	}
	if oom.Estimate.Verdict != memest.OOM || oom.Estimate.PeakBytes <= platform.ServerWithCXL().TotalMemBytes() {
		t.Errorf("estimate not a real OOM projection: %+v", oom.Estimate)
	}
	// SkipMemCheck reproduces stock AF3 (no gate): the run proceeds and
	// still carries the failing estimate for the caller to inspect.
	skipped, err := s.RunPipeline(big, platform.ServerWithCXL(), PipelineOptions{Threads: 8, SkipMemCheck: true})
	if err != nil {
		t.Fatalf("SkipMemCheck run failed: %v", err)
	}
	if skipped.Memory.Verdict != memest.OOM {
		t.Errorf("gated-off run lost its estimate: %+v", skipped.Memory)
	}
	// A run the estimator clears must carry the OK verdict through the
	// same field (the other branch of the gate).
	small, _ := inputs.ByName("2PV7")
	ok, err := s.RunPipeline(small, platform.Server(), PipelineOptions{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ok.Memory.Verdict == memest.OOM {
		t.Errorf("2PV7 flagged OOM: %+v", ok.Memory)
	}
}

func TestFigure2Rows(t *testing.T) {
	rows := Figure2()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].PeakGiB <= rows[i-1].PeakGiB {
			t.Error("memory curve not increasing")
		}
	}
	last := rows[len(rows)-1]
	if last.VerdictOn["Server+CXL"] != "OOM" {
		t.Errorf("1335 verdict on CXL server = %s, want OOM", last.VerdictOn["Server+CXL"])
	}
	if rows[2].VerdictOn["Server+CXL"] != "OK" || rows[2].VerdictOn["Server"] == "OK" {
		t.Error("1135 must need the CXL expansion (paper III-C)")
	}
}

func TestFigure3ShapesAndCV(t *testing.T) {
	s := suite(t)
	rows, err := s.Figure3([]string{"2PV7", "promo"}, TwoPlatforms(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MSASeconds <= 0 || r.InferenceSeconds <= 0 {
			t.Errorf("%+v has non-positive phases", r)
		}
		// Paper: CV within 5% for MSA, 1% for inference.
		if r.MSACV > 0.05 {
			t.Errorf("MSA CV %.3f exceeds 5%%", r.MSACV)
		}
		if r.InferenceCV > 0.01 {
			t.Errorf("inference CV %.4f exceeds 1%%", r.InferenceCV)
		}
	}
}

func TestFigure4And5Scaling(t *testing.T) {
	s := suite(t)
	rows, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(MSAThreadSweep) {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Speedup != 1 {
		t.Error("1T speedup must be 1")
	}
	// Steep 1->2 speedup, then diminishing returns (Fig. 5).
	if rows[1].Speedup < 1.6 {
		t.Errorf("2T speedup %.2f, want near 2", rows[1].Speedup)
	}
	gain12 := rows[1].Speedup - rows[0].Speedup
	gain48 := rows[4].Speedup - rows[2].Speedup
	if gain48 >= gain12 {
		t.Errorf("no saturation: 1->2 gain %.2f, 4->8 gain %.2f", gain12, gain48)
	}
}

func TestFigure6InferenceFlat(t *testing.T) {
	s := suite(t)
	rows, err := s.Figure6([]string{"2PV7"}, []platform.Machine{platform.Server()})
	if err != nil {
		t.Fatal(err)
	}
	base, last := rows[0].Seconds, rows[len(rows)-1].Seconds
	if last < base {
		t.Errorf("inference improved with threads: %.1f -> %.1f", base, last)
	}
	if last > base*1.2 {
		t.Errorf("inference degradation too steep: %.1f -> %.1f", base, last)
	}
}

func TestFigure7Shares(t *testing.T) {
	s := suite(t)
	rows, err := s.Figure7([]string{"2PV7", "6QNR"}, TwoPlatforms())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MSAPct+r.InferencePct < 99.9 || r.MSAPct+r.InferencePct > 100.1 {
			t.Errorf("shares do not sum to 100: %+v", r)
		}
		if r.MSAPct < 58 {
			t.Errorf("%s/%s MSA share %.0f%%, want dominant", r.Sample, r.Machine, r.MSAPct)
		}
		if r.OptimalThreads <= 1 {
			t.Errorf("optimal threads = %d, expected parallel benefit", r.OptimalThreads)
		}
	}
	// 6QNR on the server is the paper's 94% extreme.
	for _, r := range rows {
		if r.Sample == "6QNR" && r.Machine == "Server" && r.MSAPct < 85 {
			t.Errorf("6QNR server MSA share %.0f%%, want ~94%%", r.MSAPct)
		}
	}
}

func TestFigure8Contrast(t *testing.T) {
	s := suite(t)
	rows, err := s.Figure8([]string{"2PV7"}, TwoPlatforms())
	if err != nil {
		t.Fatal(err)
	}
	byMach := map[string]BreakdownRow{}
	for _, r := range rows {
		byMach[r.Machine] = r
	}
	if byMach["Server"].OverheadPct() < 70 {
		t.Errorf("server 2PV7 overhead %.0f%%, paper reports >75%%", byMach["Server"].OverheadPct())
	}
	if byMach["Desktop"].Compute < byMach["Desktop"].Init+byMach["Desktop"].Compile {
		t.Error("desktop compute must dominate overheads (Figure 8)")
	}
	if byMach["Server"].Compile <= byMach["Desktop"].Compile {
		t.Error("server XLA compile must be slower (slow clock + H100 autotuning)")
	}
}

func TestTable6Shape(t *testing.T) {
	s := suite(t)
	rows, err := s.Table6()
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string) Table6Row {
		for _, r := range rows {
			if r.Label == label {
				return r
			}
		}
		t.Fatalf("missing row %q", label)
		return Table6Row{}
	}
	pf, df := get("Pairformer"), get("Diffusion")
	if df.Per2PV7Seconds <= pf.Per2PV7Seconds {
		t.Error("diffusion must exceed pairformer at 2PV7 (Table VI)")
	}
	attn, mult := get("  triangle attention"), get("  triangle mult. update")
	if attn.Per2PV7Seconds <= mult.Per2PV7Seconds {
		t.Error("triangle attention must dominate the multiplicative update")
	}
	if attn.PromoSeconds/attn.Per2PV7Seconds < 3 {
		t.Errorf("triangle attention growth %.1fx, paper reports >3x",
			attn.PromoSeconds/attn.Per2PV7Seconds)
	}
	glob := get("  global attention")
	if glob.Per2PV7Seconds < 0.5*df.Per2PV7Seconds {
		t.Error("global attention must be the dominant diffusion layer")
	}
}

func TestTable3Contrasts(t *testing.T) {
	s := suite(t)
	cells, err := s.Table3([]string{"2PV7"})
	if err != nil {
		t.Fatal(err)
	}
	get := func(mach string, threads int) Table3Cell {
		for _, c := range cells {
			if c.Machine == mach && c.Threads == threads {
				return c
			}
		}
		t.Fatalf("missing cell %s/%d", mach, threads)
		return Table3Cell{}
	}
	srv1, srv6 := get("Server", 1), get("Server", 6)
	dsk1, dsk6 := get("Desktop", 1), get("Desktop", 6)

	if srv1.IPC <= dsk1.IPC {
		t.Error("Intel IPC must exceed AMD's (Table III)")
	}
	if srv1.DTLBPct > 0.1 || dsk1.DTLBPct < 5 {
		t.Errorf("dTLB contrast wrong: Intel %.2f%%, AMD %.2f%%", srv1.DTLBPct, dsk1.DTLBPct)
	}
	if srv1.BranchPct >= dsk1.BranchPct {
		t.Error("Intel branch miss must be below AMD's")
	}
	if srv1.LLCPct < 30 {
		t.Errorf("Intel 1T LLC miss %.1f%%, want high (small LLC overwhelmed)", srv1.LLCPct)
	}
	if ratio := srv6.LLCPct / srv1.LLCPct; ratio < 0.6 || ratio > 1.4 {
		t.Errorf("Intel LLC miss not roughly flat: %.1f%% -> %.1f%%", srv1.LLCPct, srv6.LLCPct)
	}
	if dsk1.LLCPct > 15 {
		t.Errorf("AMD 1T LLC miss %.1f%%, want low (large LLC)", dsk1.LLCPct)
	}
	if dsk6.LLCPct < dsk1.LLCPct+10 {
		t.Errorf("AMD LLC miss must climb with threads: %.1f%% -> %.1f%%", dsk1.LLCPct, dsk6.LLCPct)
	}
}

func TestTable3PromoRegularity(t *testing.T) {
	s := suite(t)
	cells, err := s.Table3([]string{"2PV7", "promo"})
	if err != nil {
		t.Fatal(err)
	}
	dtlb := map[string]float64{}
	for _, c := range cells {
		if c.Machine == "Desktop" && c.Threads == 4 {
			dtlb[c.Sample] = c.DTLBPct
		}
	}
	if dtlb["promo"] >= dtlb["2PV7"] {
		t.Errorf("promo dTLB (%.1f%%) must be below 2PV7 (%.1f%%): repetitive patterns ease translation (V-B2b)",
			dtlb["promo"], dtlb["2PV7"])
	}
}

func TestTable4Shares(t *testing.T) {
	s := suite(t)
	rows, err := s.Table4([]string{"2PV7"})
	if err != nil {
		t.Fatal(err)
	}
	share := func(metric, fn, col string) float64 {
		for _, r := range rows {
			if r.Metric == metric && r.Function == fn {
				return r.SharePct[col]
			}
		}
		return 0
	}
	band := share("cycles", "calc_band_9", "2PV7/1T") + share("cycles", "calc_band_10", "2PV7/1T")
	if band < 35 {
		t.Errorf("band kernels %.0f%% of cycles, want dominant (Table IV ~55%%)", band)
	}
	if share("cycles", "calc_band_9", "2PV7/1T") < share("cycles", "calc_band_10", "2PV7/1T") {
		t.Error("calc_band_9 must lead calc_band_10")
	}
	if share("cycles", "addbuf", "2PV7/1T") <= 0 || share("cycles", "seebuf", "2PV7/1T") <= 0 {
		t.Error("buffer functions missing")
	}
	// copy_to_iter's cache-miss share must fall from 1T to 4T (Table IV:
	// 46.5% -> 24.5%) as the DP kernels' contention share grows.
	c1 := share("cache-misses", "copy_to_iter", "2PV7/1T")
	c4 := share("cache-misses", "copy_to_iter", "2PV7/4T")
	if c4 >= c1 {
		t.Errorf("copy_to_iter cache-miss share must fall with threads: %.1f%% -> %.1f%%", c1, c4)
	}
	b1 := share("cache-misses", "calc_band_9", "2PV7/1T")
	b4 := share("cache-misses", "calc_band_9", "2PV7/4T")
	if b4 <= b1 {
		t.Errorf("calc_band_9 cache-miss share must rise with threads: %.1f%% -> %.1f%%", b1, b4)
	}
}

func TestTable5Symbols(t *testing.T) {
	s := suite(t)
	rows, err := s.Table5([]string{"2PV7", "promo"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Symbol+"/"+r.Sample] = r.OverheadPct
		if r.OverheadPct <= 0 || r.OverheadPct >= 100 {
			t.Errorf("overhead %.1f%% out of range for %s", r.OverheadPct, r.Symbol)
		}
	}
	if byKey["std::vector::_M_fill_insert/promo"] <= byKey["std::vector::_M_fill_insert/2PV7"] {
		t.Error("fill_insert page-fault share must grow with input size (Table V: 12.99 -> 16.83)")
	}
}

func TestSampleNamesAndPlatforms(t *testing.T) {
	names := SampleNames()
	if len(names) != 5 || names[0] != "2PV7" {
		t.Errorf("sample names = %v", names)
	}
	if len(TwoPlatforms()) != 2 {
		t.Error("platforms wrong")
	}
}

func TestLayerBreakdownSpillVariant(t *testing.T) {
	s := suite(t)
	rows, err := s.LayerBreakdown([]string{"6QNR"}, platform.Desktop())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, r := range rows {
		total += r.SharePct
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("layer shares sum to %.1f", total)
	}
}

func TestDNAChainTypeNeverSearched(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("7RCE")
	res, err := s.MSAResult(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.PerChain {
		if c.Type == seq.DNA {
			t.Error("DNA chain searched in pipeline")
		}
	}
}

func TestOptimalThreadsAPI(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("6QNR")
	best, err := s.OptimalThreads(in, platform.Server())
	if err != nil {
		t.Fatal(err)
	}
	if best.Threads <= 1 || best.Threads > 8 {
		t.Errorf("optimal threads = %d", best.Threads)
	}
	// It must actually be the minimum of the sweep.
	for _, th := range MSAThreadSweep {
		pr, err := s.RunPipeline(in, MachineFor(in, platform.Server()), PipelineOptions{Threads: th})
		if err != nil {
			t.Fatal(err)
		}
		if pr.TotalSeconds() < best.TotalSeconds()-1e-9 {
			t.Errorf("sweep found %dT (%.0fs) better than reported optimum %dT (%.0fs)",
				th, pr.TotalSeconds(), best.Threads, best.TotalSeconds())
		}
	}
}
