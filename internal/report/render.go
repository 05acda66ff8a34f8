package report

import (
	"fmt"
	"io"

	"afsysbench/internal/core"
	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
	"afsysbench/internal/simgpu"
)

// Renderers: one per paper artifact, consuming the typed rows produced by
// the core experiment functions.

// groupBy splits rows by key, keeping rows in order within a group and
// groups in the order their keys first appear.
func groupBy[R any, K comparable](rows []R, key func(R) K) [][]R {
	index := map[K]int{}
	var groups [][]R
	for _, r := range rows {
		k := key(r)
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	return groups
}

// RenderFigure2 prints the RNA memory curve with the capacity lines.
func RenderFigure2(w io.Writer, rows []core.MemRow) error {
	fmt.Fprintln(w, "Figure 2: peak memory vs RNA sequence length (nhmmer)")
	srv := platform.Server()
	fmt.Fprintf(w, "  main memory: %d GiB; with CXL expansion: %d GiB\n",
		srv.DRAMBytes>>30, platform.ServerWithCXL().TotalMemBytes()>>30)
	var trows [][]string
	for _, r := range rows {
		trows = append(trows, []string{
			fmt.Sprint(r.RNALen),
			F1(r.PeakGiB),
			r.VerdictOn["Server"],
			r.VerdictOn["Server+CXL"],
			r.Note,
		})
	}
	return Table(w, []string{"RNA length", "peak GiB", "server", "server+CXL", "provenance"}, trows)
}

// RenderFigure3 prints the stacked phase bars grouped by sample.
func RenderFigure3(w io.Writer, rows []core.PhaseRow) error {
	fmt.Fprintln(w, "Figure 3: total execution time (MSA + inference) by sample, platform, threads")
	for _, group := range groupBy(rows, func(r core.PhaseRow) string { return r.Sample }) {
		var bars []Bar
		for _, r := range group {
			bars = append(bars, Bar{
				Label: fmt.Sprintf("%s %dT", r.Machine, r.Threads),
				Segments: []Segment{
					{Name: "MSA", Value: r.MSASeconds},
					{Name: "inference", Value: r.InferenceSeconds},
				},
			})
		}
		if err := StackedBars(w, "sample "+group[0].Sample, bars, 50); err != nil {
			return err
		}
	}
	return nil
}

// RenderScaling prints Figure 4/5 style time+speedup curves.
func RenderScaling(w io.Writer, title string, rows []core.ScalingRow) error {
	fmt.Fprintln(w, title)
	var timeSeries, speedupSeries []Series
	for _, curve := range groupBy(rows, func(r core.ScalingRow) [2]string { return [2]string{r.Sample, r.Machine} }) {
		var tp, sp []Point
		for _, r := range curve {
			tp = append(tp, Point{X: float64(r.Threads), Y: r.Seconds})
			sp = append(sp, Point{X: float64(r.Threads), Y: r.Speedup})
		}
		name := curve[0].Sample + "@" + curve[0].Machine
		timeSeries = append(timeSeries, Series{Name: name + " (s)", Points: tp})
		speedupSeries = append(speedupSeries, Series{Name: name + " (x)", Points: sp})
	}
	if err := LineChart(w, "MSA time by threads", "threads", timeSeries); err != nil {
		return err
	}
	return LineChart(w, "speedup by threads", "threads", speedupSeries)
}

// RenderFigure6 prints inference time vs threads.
func RenderFigure6(w io.Writer, rows []core.InferenceRow) error {
	fmt.Fprintln(w, "Figure 6: inference time vs CPU threads")
	var series []Series
	for _, curve := range groupBy(rows, func(r core.InferenceRow) [2]string { return [2]string{r.Sample, r.Machine} }) {
		var pts []Point
		for _, r := range curve {
			pts = append(pts, Point{X: float64(r.Threads), Y: r.Seconds})
		}
		series = append(series, Series{Name: curve[0].Sample + "@" + curve[0].Machine, Points: pts})
	}
	return LineChart(w, "inference seconds", "threads", series)
}

// RenderFigure7 prints the phase-share bars.
func RenderFigure7(w io.Writer, rows []core.ShareRow) error {
	fmt.Fprintln(w, "Figure 7: relative time distribution at optimal threads")
	var trows [][]string
	for _, r := range rows {
		trows = append(trows, []string{
			r.Sample, r.Machine, fmt.Sprint(r.OptimalThreads),
			Pct(r.MSAPct), Pct(r.InferencePct),
		})
	}
	return Table(w, []string{"sample", "machine", "opt threads", "MSA", "inference"}, trows)
}

// RenderFigure8 prints the inference phase breakdown bars.
func RenderFigure8(w io.Writer, rows []core.BreakdownRow) error {
	fmt.Fprintln(w, "Figure 8: GPU inference time breakdown")
	var bars []Bar
	for _, r := range rows {
		label := fmt.Sprintf("%s@%s", r.Sample, r.Machine)
		if r.Spilled {
			label += " (unified mem)"
		}
		bars = append(bars, Bar{
			Label: label,
			Segments: []Segment{
				{Name: "init", Value: r.Init},
				{Name: "xla compile", Value: r.Compile},
				{Name: "gpu compute", Value: r.Compute},
				{Name: "finalize", Value: r.Finalize},
			},
		})
	}
	if err := StackedBars(w, "", bars, 50); err != nil {
		return err
	}
	var trows [][]string
	for _, r := range rows {
		trows = append(trows, []string{
			r.Sample, r.Machine, F1(r.Init), F1(r.Compile), F1(r.Compute), F1(r.Finalize), Pct(r.OverheadPct()),
		})
	}
	return Table(w, []string{"sample", "machine", "init s", "compile s", "compute s", "finalize s", "overhead"}, trows)
}

// RenderFigure9 prints the layer pies per sample.
func RenderFigure9(w io.Writer, rows []core.LayerRow) error {
	fmt.Fprintln(w, "Figure 9: Pairformer and Diffusion layer execution breakdown")
	for _, group := range groupBy(rows, func(r core.LayerRow) string { return r.Sample }) {
		var slices []Segment
		for _, r := range group {
			slices = append(slices, Segment{Name: r.Module + ": " + r.Layer, Value: r.Seconds})
		}
		if err := Pie(w, "sample "+group[0].Sample, slices); err != nil {
			return err
		}
	}
	return nil
}

// RenderTable3 prints the CPU metric comparison.
func RenderTable3(w io.Writer, cells []core.Table3Cell) error {
	fmt.Fprintln(w, "Table III: CPU performance metrics across samples and thread counts")
	var trows [][]string
	for _, c := range cells {
		trows = append(trows, []string{
			c.Sample, c.Machine, fmt.Sprintf("%dT", c.Threads),
			F2(c.IPC), F1(c.CacheMPKI), F2(c.L1Pct), F1(c.LLCPct), F2(c.DTLBPct), F2(c.BranchPct),
		})
	}
	return Table(w, []string{"input", "machine", "threads", "IPC", "miss MPKI", "L1 %", "LLC %", "dTLB %", "branch %"}, trows)
}

// RenderTable4 prints the function-level profile.
func RenderTable4(w io.Writer, rows []core.Table4Row, cols []string) error {
	fmt.Fprintln(w, "Table IV: function-level performance on the Server")
	headers := append([]string{"metric", "function"}, cols...)
	var trows [][]string
	for _, r := range rows {
		// Skip functions that never reach 2% in any column to keep the
		// report at perf-report size.
		top := 0.0
		for _, c := range cols {
			top = max(top, r.SharePct[c])
		}
		if top < 2 {
			continue
		}
		row := []string{r.Metric, r.Function}
		for _, c := range cols {
			row = append(row, Pct(r.SharePct[c]))
		}
		trows = append(trows, row)
	}
	return Table(w, headers, trows)
}

// RenderTable5 prints the inference bottleneck profile.
func RenderTable5(w io.Writer, rows []core.Table5Row) error {
	fmt.Fprintln(w, "Table V: inference performance bottlenecks on the Server")
	var trows [][]string
	for _, r := range rows {
		trows = append(trows, []string{r.EventType, r.Symbol, r.Sample, Pct(r.OverheadPct)})
	}
	return Table(w, []string{"event type", "function/symbol", "sample", "overhead"}, trows)
}

// RenderTable6 prints the layer-wise ms table.
func RenderTable6(w io.Writer, rows []core.Table6Row) error {
	fmt.Fprintln(w, "Table VI: layer-wise execution time breakdown (seconds, simulated H100)")
	var trows [][]string
	for _, r := range rows {
		trows = append(trows, []string{r.Label, F2(r.Per2PV7Seconds), F2(r.PromoSeconds)})
	}
	return Table(w, []string{"layer", "2PV7 (s)", "promo (s)"}, trows)
}

// RenderDeployments prints the deployment-strategy comparison (the §VI
// persistent-model and ParaFold-style pipelining extensions).
func RenderDeployments(w io.Writer, rows []core.DeploymentRow) error {
	fmt.Fprintln(w, "Batch deployment comparison (extension: §VI persistent model + pipelining)")
	var trows [][]string
	for _, r := range rows {
		trows = append(trows, []string{
			r.Deployment,
			F0(r.Makespan),
			F1(float64(r.Requests) / r.Makespan * 3600),
			F1(100 * r.CPUBusy / r.Makespan),
			F1(100 * r.GPUBusy / r.Makespan),
		})
	}
	return Table(w, []string{"deployment", "makespan_s", "requests_per_hour", "cpu_util_pct", "gpu_util_pct"}, trows)
}

// RenderSensitivity prints the search engine's homolog-recovery curve and
// decoy false-positive rate (the quality the paper says keeps
// jackhmmer/nhmmer in the pipeline despite their cost).
func RenderSensitivity(w io.Writer, rep *hmmer.SensitivityReport) error {
	fmt.Fprintln(w, "Search sensitivity (extension: engine quality regression)")
	var trows [][]string
	for _, p := range rep.Points {
		trows = append(trows, []string{
			F2(p.Divergence), fmt.Sprint(p.Planted), fmt.Sprint(p.Recovered), F1(100 * p.Recovery()),
		})
	}
	if err := Table(w, []string{"divergence", "planted", "recovered", "recovery_pct"}, trows); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "false positives: %d / %d decoys (%.2f%%) at E <= 1e-3\n",
		rep.FalsePositives, rep.Decoys, 100*rep.FalsePositiveRate())
	return err
}

// RenderPlatforms prints Table I.
func RenderPlatforms(w io.Writer) error {
	fmt.Fprintln(w, "Table I: system hardware configurations")
	var trows [][]string
	for _, m := range platform.All() {
		trows = append(trows, []string{
			m.Name, m.CPU.Name,
			fmt.Sprintf("%d/%d", m.CPU.Cores, m.CPU.Threads),
			fmt.Sprintf("%.1f/%.1f GHz", m.CPU.BaseClockGHz, m.CPU.MaxClockGHz),
			fmt.Sprintf("%d MiB", m.CPU.LLCBytes>>20),
			fmt.Sprintf("%d GiB", m.TotalMemBytes()>>30),
			m.GPU.Name,
		})
	}
	return Table(w, []string{"machine", "CPU", "cores/threads", "clock", "LLC", "memory", "GPU"}, trows)
}

// RenderSamples prints Table II.
func RenderSamples(w io.Writer) error {
	fmt.Fprintln(w, "Table II: input samples")
	var trows [][]string
	for _, in := range inputs.Samples() {
		rna := "-"
		if in.HasRNA() {
			rna = fmt.Sprint(in.MaxRNALength())
		}
		trows = append(trows, []string{
			in.Name,
			fmt.Sprint(in.ChainCount()),
			fmt.Sprint(in.TotalResidues()),
			rna,
			fmt.Sprintf("%.2f", in.MaxLowComplexity()),
		})
	}
	return Table(w, []string{"sample", "chains", "residues", "RNA", "max low-complexity"}, trows)
}

// RenderPipelineRun prints one end-to-end pipeline run — phase times, disk
// counters, the memory verdict and, when anything went wrong on the way,
// the resilience report (retries, dropped databases, degradation events).
func RenderPipelineRun(w io.Writer, pr *core.PipelineResult) error {
	fmt.Fprintf(w, "%s on %s (%d threads)\n", pr.Sample, pr.Machine, pr.Threads)
	rows := [][]string{
		{"MSA", F1(pr.MSASeconds), fmt.Sprintf("cpu %s, disk %s, util %s%%",
			F1(pr.MSACPUSeconds), F1(pr.MSADiskSeconds), F0(pr.DiskUtilPct))},
		{"inference", F1(pr.Inference.Total()), fmt.Sprintf("compute %s", F1(pr.Inference.ComputeSeconds))},
		{"total", F1(pr.TotalSeconds()), fmt.Sprintf("MSA share %s%%", F0(100*pr.MSAFraction()))},
	}
	if err := Table(w, []string{"phase", "seconds", "detail"}, rows); err != nil {
		return err
	}
	fmt.Fprintf(w, "memory: projected %.0f GiB, verdict %s\n",
		float64(pr.Memory.PeakBytes)/(1<<30), pr.Memory.Verdict)
	fmt.Fprintf(w, "disk:   %s\n", pr.DiskStats.String())
	rep := pr.Resilience
	if rep.Retries == 0 && !rep.Degraded && len(rep.Events) == 0 {
		return nil
	}
	fmt.Fprintf(w, "resilience: %s\n", rep.String())
	for _, e := range rep.Events {
		fmt.Fprintf(w, "  %s\n", e.String())
	}
	return nil
}

// InferenceSegments lays out the inference phase as the GPU runs it: init
// and XLA compile (absent on a warm start), compute, finalize (Figure 8).
func InferenceSegments(pb simgpu.PhaseBreakdown) []Segment {
	var segs []Segment
	if pb.InitSeconds > 0 {
		segs = append(segs, Segment{"gpu init", pb.InitSeconds})
	}
	if pb.CompileSeconds > 0 {
		segs = append(segs, Segment{"xla compile", pb.CompileSeconds})
	}
	compute := "gpu compute"
	if pb.Spilled {
		compute = "gpu compute (unified mem)"
	}
	return append(segs, Segment{compute, pb.ComputeSeconds}, Segment{"finalize", pb.FinalizeSeconds})
}

// LayerSegments lays out the compute phase layer by layer, in the order
// given (the JAX-profiler view behind Figure 9 / Table VI).
func LayerSegments(layers []simgpu.LayerTime) []Segment {
	segs := make([]Segment, len(layers))
	for i, l := range layers {
		segs[i] = Segment{l.Module + ": " + l.Layer, l.Seconds}
	}
	return segs
}
