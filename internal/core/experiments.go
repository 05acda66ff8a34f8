package core

import (
	"fmt"
	"sort"

	"afsysbench/internal/inputs"
	"afsysbench/internal/memest"
	"afsysbench/internal/platform"
	"afsysbench/internal/simgpu"
	"afsysbench/internal/stats"
)

// Thread sweeps used by the paper.
var (
	// MSAThreadSweep covers Figures 3–5.
	MSAThreadSweep = []int{1, 2, 4, 6, 8}
	// InferenceThreadSweep covers Figure 6.
	InferenceThreadSweep = []int{1, 2, 4, 6}
)

// MachineFor applies the paper's operational substitution: samples whose
// MSA stage cannot fit the stock desktop's 64 GiB (6QNR) run on the
// DRAM-upgraded desktop instead (Section III-B).
func MachineFor(in *inputs.Input, mach platform.Machine) platform.Machine {
	if mach.Name == "Desktop" && memest.Check(in, mach, 8).Verdict != memest.OK {
		return platform.DesktopUpgraded()
	}
	return mach
}

// TwoPlatforms returns the paper's Server and Desktop machines.
func TwoPlatforms() []platform.Machine {
	return []platform.Machine{platform.Server(), platform.Desktop()}
}

// SampleNames returns the Table II sample names in paper order.
func SampleNames() []string {
	names := make([]string, 0, 5)
	for _, in := range inputs.Samples() {
		names = append(names, in.Name)
	}
	return names
}

// PhaseRow is one bar of Figure 3: mean phase times with CV over repeats.
type PhaseRow struct {
	Sample           string
	Machine          string
	Threads          int
	MSASeconds       float64
	InferenceSeconds float64
	MSACV            float64
	InferenceCV      float64
}

// Total returns the stacked bar height.
func (r PhaseRow) Total() float64 { return r.MSASeconds + r.InferenceSeconds }

// Figure3 produces the stacked MSA+inference execution times across the
// sample × machine × thread matrix, averaged over s.Runs repetitions.
func (s *Suite) Figure3(sampleNames []string, machines []platform.Machine, threads []int) ([]PhaseRow, error) {
	var rows []PhaseRow
	for _, name := range sampleNames {
		in, err := inputs.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, mach := range machines {
			for _, t := range threads {
				var msaTimes, infTimes []float64
				for run := 0; run < s.Runs; run++ {
					pr, err := s.RunPipeline(in, MachineFor(in, mach), PipelineOptions{Threads: t, RunIndex: run})
					if err != nil {
						return nil, fmt.Errorf("core: %s on %s at %dT: %w", name, mach.Name, t, err)
					}
					msaTimes = append(msaTimes, pr.MSASeconds)
					infTimes = append(infTimes, pr.Inference.Total())
				}
				rows = append(rows, PhaseRow{
					Sample:           name,
					Machine:          mach.Name,
					Threads:          t,
					MSASeconds:       stats.Mean(msaTimes),
					InferenceSeconds: stats.Mean(infTimes),
					MSACV:            stats.CV(msaTimes),
					InferenceCV:      stats.CV(infTimes),
				})
			}
		}
	}
	return rows, nil
}

// MemRow is one point of Figure 2: projected nhmmer peak memory per RNA
// length, with the verdict on the CXL-equipped server.
type MemRow struct {
	RNALen    int
	PeakGiB   float64
	VerdictOn map[string]string // machine name -> verdict
	Note      string
}

// Figure2 produces the RNA-length memory sweep. The DRAM and DRAM+CXL
// capacities of the server platform are the figure's horizontal lines.
func Figure2() []MemRow {
	machines := []platform.Machine{platform.Server(), platform.ServerWithCXL()}
	var rows []MemRow
	anchors := memest.Anchors()
	for i, in := range inputs.RNASweep() {
		est := memest.Check(in, machines[0], 8)
		row := MemRow{
			RNALen:    in.MaxRNALength(),
			PeakGiB:   float64(est.RNABytes) / (1 << 30),
			VerdictOn: make(map[string]string),
		}
		if i < len(anchors) {
			row.Note = anchors[i].Note
		}
		for _, m := range machines {
			row.VerdictOn[m.Name] = memest.Check(in, m, 8).Verdict.String()
		}
		rows = append(rows, row)
	}
	return rows
}

// ScalingRow is one point of Figures 4–5: MSA time and speedup vs threads.
type ScalingRow struct {
	Sample  string
	Machine string
	Threads int
	Seconds float64
	Speedup float64
}

// Figure4 produces per-sample MSA scaling curves on both platforms.
func (s *Suite) Figure4(sampleNames []string, machines []platform.Machine) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, name := range sampleNames {
		in, err := inputs.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, mach := range machines {
			base := 0.0
			for _, t := range MSAThreadSweep {
				pr, err := s.RunPipeline(in, MachineFor(in, mach), PipelineOptions{Threads: t})
				if err != nil {
					return nil, err
				}
				if t == 1 {
					base = pr.MSASeconds
				}
				speedup := 0.0
				if pr.MSASeconds > 0 {
					speedup = base / pr.MSASeconds
				}
				rows = append(rows, ScalingRow{
					Sample: name, Machine: mach.Name, Threads: t,
					Seconds: pr.MSASeconds, Speedup: speedup,
				})
			}
		}
	}
	return rows, nil
}

// Figure5 is the 6QNR deep-dive: thread-level MSA time and speedup on the
// server (the paper's most compute-intensive sample).
func (s *Suite) Figure5() ([]ScalingRow, error) {
	return s.Figure4([]string{"6QNR"}, []platform.Machine{platform.Server()})
}

// InferenceRow is one point of Figure 6.
type InferenceRow struct {
	Sample  string
	Machine string
	Threads int
	Seconds float64
}

// Figure6 produces inference time vs CPU threads (flat-to-degrading).
func (s *Suite) Figure6(sampleNames []string, machines []platform.Machine) ([]InferenceRow, error) {
	var rows []InferenceRow
	for _, name := range sampleNames {
		in, err := inputs.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, mach := range machines {
			for _, t := range InferenceThreadSweep {
				pr, err := s.RunPipeline(in, MachineFor(in, mach), PipelineOptions{Threads: t})
				if err != nil {
					return nil, err
				}
				rows = append(rows, InferenceRow{
					Sample: name, Machine: mach.Name, Threads: t,
					Seconds: pr.Inference.Total(),
				})
			}
		}
	}
	return rows, nil
}

// ShareRow is one bar of Figure 7: phase shares at each platform's optimal
// thread setting.
type ShareRow struct {
	Sample         string
	Machine        string
	OptimalThreads int
	MSAPct         float64
	InferencePct   float64
}

// OptimalThreads sweeps the paper's thread counts and returns the setting
// minimizing end-to-end time for the sample on the machine, with the run at
// that setting — the adaptive allocation Observation 3 recommends over
// AF3's fixed default of 8.
func (s *Suite) OptimalThreads(in *inputs.Input, mach platform.Machine) (*PipelineResult, error) {
	var best *PipelineResult
	for _, t := range MSAThreadSweep {
		pr, err := s.RunPipeline(in, MachineFor(in, mach), PipelineOptions{Threads: t})
		if err != nil {
			return nil, err
		}
		if best == nil || pr.TotalSeconds() < best.TotalSeconds() {
			best = pr
		}
	}
	return best, nil
}

// Figure7 finds, per sample and machine, the thread count minimizing total
// time, then reports the phase split there.
func (s *Suite) Figure7(sampleNames []string, machines []platform.Machine) ([]ShareRow, error) {
	var rows []ShareRow
	for _, name := range sampleNames {
		in, err := inputs.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, mach := range machines {
			best, err := s.OptimalThreads(in, mach)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ShareRow{
				Sample:         name,
				Machine:        mach.Name,
				OptimalThreads: best.Threads,
				MSAPct:         100 * best.MSAFraction(),
				InferencePct:   100 * (1 - best.MSAFraction()),
			})
		}
	}
	return rows, nil
}

// BreakdownRow is one stacked bar of Figure 8.
type BreakdownRow struct {
	Sample   string
	Machine  string
	Init     float64
	Compile  float64
	Compute  float64
	Finalize float64
	Spilled  bool
}

// Total returns the bar height.
func (r BreakdownRow) Total() float64 { return r.Init + r.Compile + r.Compute + r.Finalize }

// OverheadPct returns the non-compute share.
func (r BreakdownRow) OverheadPct() float64 {
	t := r.Total()
	if t == 0 {
		return 0
	}
	return 100 * (t - r.Compute) / t
}

// Figure8 produces the Nsight-style inference phase breakdown.
func (s *Suite) Figure8(sampleNames []string, machines []platform.Machine) ([]BreakdownRow, error) {
	var rows []BreakdownRow
	for _, name := range sampleNames {
		in, err := inputs.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, mach := range machines {
			pr, err := s.RunPipeline(in, MachineFor(in, mach), PipelineOptions{Threads: 1})
			if err != nil {
				return nil, err
			}
			rows = append(rows, BreakdownRow{
				Sample:   name,
				Machine:  mach.Name,
				Init:     pr.Inference.InitSeconds,
				Compile:  pr.Inference.CompileSeconds,
				Compute:  pr.Inference.ComputeSeconds,
				Finalize: pr.Inference.FinalizeSeconds,
				Spilled:  pr.Inference.Spilled,
			})
		}
	}
	return rows, nil
}

// LayerRow is one slice of Figure 9 / one row of Table VI.
type LayerRow struct {
	Sample   string
	Module   string
	Layer    string
	Seconds  float64
	SharePct float64 // share of the whole (Pairformer + Diffusion) time
}

// LayerBreakdown produces the per-layer execution split for the given
// samples on the reference platform (the paper profiles with the JAX
// profiler on the server).
func (s *Suite) LayerBreakdown(sampleNames []string, mach platform.Machine) ([]LayerRow, error) {
	var rows []LayerRow
	for _, name := range sampleNames {
		in, err := inputs.ByName(name)
		if err != nil {
			return nil, err
		}
		n := in.TotalResidues()
		spill := s.Model.MemoryFootprintBytes(n) > mach.GPU.MemBytes
		layers := s.Model.LayerTimes(mach, n, spill)
		var total float64
		for _, l := range layers {
			total += l.Seconds
		}
		for _, l := range layers {
			rows = append(rows, LayerRow{
				Sample:   name,
				Module:   l.Module,
				Layer:    l.Layer,
				Seconds:  l.Seconds,
				SharePct: 100 * l.Seconds / total,
			})
		}
	}
	return rows, nil
}

// Figure9 returns the layer pie for 2PV7 and promo.
func (s *Suite) Figure9() ([]LayerRow, error) {
	return s.LayerBreakdown([]string{"2PV7", "promo"}, platform.Server())
}

// Table6 mirrors Figure9 but includes module subtotals, matching the
// paper's Table VI layout.
type Table6Row struct {
	Label          string
	Per2PV7Seconds float64
	PromoSeconds   float64
	IsModuleTotal  bool
}

// Table6 produces the layer-wise execution table for 2PV7 vs promo.
func (s *Suite) Table6() ([]Table6Row, error) {
	layers, err := s.Figure9()
	if err != nil {
		return nil, err
	}
	bySample := map[string]map[string]float64{}
	moduleTotal := map[string]map[string]float64{}
	for _, l := range layers {
		if bySample[l.Sample] == nil {
			bySample[l.Sample] = map[string]float64{}
			moduleTotal[l.Sample] = map[string]float64{}
		}
		bySample[l.Sample][l.Module+"/"+l.Layer] = l.Seconds
		moduleTotal[l.Sample][l.Module] += l.Seconds
	}
	mk := func(label, key string, module bool) Table6Row {
		src := bySample
		if module {
			src = moduleTotal
		}
		return Table6Row{
			Label:          label,
			Per2PV7Seconds: src["2PV7"][key],
			PromoSeconds:   src["promo"][key],
			IsModuleTotal:  module,
		}
	}
	return []Table6Row{
		mk("Pairformer", "Pairformer", true),
		mk("  triangle mult. update", "Pairformer/triangle mult. update", false),
		mk("  triangle attention", "Pairformer/triangle attention", false),
		mk("  pair transition", "Pairformer/pair transition", false),
		mk("  single update", "Pairformer/single update", false),
		mk("Diffusion", "Diffusion", true),
		mk("  local attn. (encoder)", "Diffusion/local attn. (encoder)", false),
		mk("  local attn. (decoder)", "Diffusion/local attn. (decoder)", false),
		mk("  global attention", "Diffusion/global attention", false),
		mk("  coordinate update", "Diffusion/coordinate update", false),
	}, nil
}

// Table3Cell is one (input, machine, threads) cell of Table III.
type Table3Cell struct {
	Sample    string
	Machine   string
	Threads   int
	IPC       float64
	CacheMPKI float64
	L1Pct     float64
	LLCPct    float64
	DTLBPct   float64
	BranchPct float64
}

// Table3 produces the CPU performance metric comparison for the given
// samples across both CPUs at 1, 4 and 6 threads.
func (s *Suite) Table3(sampleNames []string) ([]Table3Cell, error) {
	var cells []Table3Cell
	for _, name := range sampleNames {
		in, err := inputs.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, mach := range TwoPlatforms() {
			for _, t := range []int{1, 4, 6} {
				pr, err := s.RunPipeline(in, MachineFor(in, mach), PipelineOptions{Threads: t})
				if err != nil {
					return nil, err
				}
				a := pr.MSACPU.Aggregate
				cells = append(cells, Table3Cell{
					Sample: name, Machine: mach.Name, Threads: t,
					IPC:       a.IPC(),
					CacheMPKI: a.CacheMissMPKI(),
					L1Pct:     a.L1MissPct(),
					LLCPct:    a.LLCMissPct(),
					DTLBPct:   a.DTLBMissPct(),
					BranchPct: a.BranchMissPct(),
				})
			}
		}
	}
	return cells, nil
}

// Table4Row is one function's profile share (Table IV).
type Table4Row struct {
	Metric   string // "cycles" or "cache-misses"
	Function string
	// SharePct maps "sample/threads" (e.g. "2PV7/1T") to the share.
	SharePct map[string]float64
}

// Table4 produces function-level cycle and cache-miss shares on the server
// for the given samples at 1 and 4 threads.
func (s *Suite) Table4(sampleNames []string) ([]Table4Row, error) {
	type key struct{ metric, fn string }
	shares := map[key]map[string]float64{}
	record := func(metric, fn, col string, v float64) {
		k := key{metric, fn}
		if shares[k] == nil {
			shares[k] = map[string]float64{}
		}
		shares[k][col] = v
	}
	for _, name := range sampleNames {
		in, err := inputs.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, t := range []int{1, 4} {
			pr, err := s.RunPipeline(in, platform.Server(), PipelineOptions{Threads: t})
			if err != nil {
				return nil, err
			}
			col := fmt.Sprintf("%s/%dT", name, t)
			var totCycles, totMiss float64
			for _, c := range pr.MSACPU.PerFunc {
				totCycles += float64(c.Cycles)
				totMiss += float64(c.LLCMisses)
			}
			for fn, c := range pr.MSACPU.PerFunc {
				if totCycles > 0 {
					record("cycles", fn, col, 100*float64(c.Cycles)/totCycles)
				}
				if totMiss > 0 {
					record("cache-misses", fn, col, 100*float64(c.LLCMisses)/totMiss)
				}
			}
		}
	}
	var rows []Table4Row
	for k, cols := range shares {
		rows = append(rows, Table4Row{Metric: k.metric, Function: k.fn, SharePct: cols})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Metric != rows[j].Metric {
			return rows[i].Metric < rows[j].Metric
		}
		var si, sj float64
		for _, v := range rows[i].SharePct {
			si += v
		}
		for _, v := range rows[j].SharePct {
			sj += v
		}
		if si != sj {
			return si > sj
		}
		return rows[i].Function < rows[j].Function
	})
	return rows, nil
}

// Table5Row is one inference host-side bottleneck (Table V).
type Table5Row struct {
	EventType   string
	Symbol      string
	Sample      string
	OverheadPct float64
}

// Table5 profiles the inference initialization/compilation phase on the
// server: the share each hot symbol takes of its event type's total.
func (s *Suite) Table5(sampleNames []string) ([]Table5Row, error) {
	var rows []Table5Row
	for _, name := range sampleNames {
		in, err := inputs.ByName(name)
		if err != nil {
			return nil, err
		}
		host, err := s.CompileSim(platform.Server(), in.TotalResidues())
		if err != nil {
			return nil, err
		}
		var totFaults, totTLBWork, totLLC float64
		type proxy struct{ faults, tlbWork, llc float64 }
		byFn := map[string]proxy{}
		for fn, c := range host.Sim.PerFunc {
			p := proxy{
				faults:  float64(c.PageFaults),
				tlbWork: float64(c.TLBMisses),
				llc:     float64(c.LLCMisses),
			}
			byFn[fn] = p
			totFaults += p.faults
			totTLBWork += p.tlbWork
			totLLC += p.llc
		}
		add := func(event, sym string, val, tot float64) {
			pct := 0.0
			if tot > 0 {
				pct = 100 * val / tot
			}
			rows = append(rows, Table5Row{EventType: event, Symbol: sym, Sample: name, OverheadPct: pct})
		}
		add("Page Faults", "std::vector::_M_fill_insert", byFn["std::vector::_M_fill_insert"].faults, totFaults)
		add("dTLB Load Misses", "xla::ShapeUtil::ByteSizeOf", byFn["xla::ShapeUtil::ByteSizeOf"].tlbWork, totTLBWork)
		add("LLC Load Misses", "copy_to_iter", byFn["copy_to_iter"].llc, totLLC)
	}
	return rows, nil
}

// Inference runtime model helper for examples and the warm-server bench.
func (s *Suite) InferenceOnly(in *inputs.Input, mach platform.Machine, warm bool) (simgpu.PhaseBreakdown, error) {
	host, err := s.CompileSim(mach, in.TotalResidues())
	if err != nil {
		return simgpu.PhaseBreakdown{}, err
	}
	return simgpu.Inference(mach, s.Model, in.TotalResidues(), simgpu.InferenceOptions{
		Threads:        1,
		WarmStart:      warm,
		CompileSeconds: host.CompileSeconds,
	})
}
