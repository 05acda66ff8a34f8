// Command afsysbench runs the AFSysBench-Go benchmark suite: the AlphaFold3
// pipeline reproduction (MSA phase + inference phase) over the paper's
// samples, platforms and thread counts, printing any of the paper's tables
// and figures.
//
// Usage:
//
//	afsysbench -list platforms          # Table I
//	afsysbench -list samples            # Table II
//	afsysbench -exp fig3                # any of fig2..fig9, tab3..tab6, all
//	afsysbench -exp fig4 -samples 2PV7,promo
//	afsysbench -exp fig3 -threads 1,4,8
//	afsysbench -run 2PV7 -machine desktop               # one pipeline run
//	afsysbench -run 2PV7 -faults permanent:uniref_s     # fault injection
//	afsysbench -run 2PV7 -stage-budget msa=3000 -timeout 2m
//	afsysbench prof -sample 2PV7 -machine Server -compare   # function-level profiles (prof.go)
//	afsysbench memest -sample 6QNR                      # static memory pre-check (memest.go)
//	afsysbench calib -samples 2PV7                      # calibration matrix (calib.go)
//
// Exit codes for -run: 0 success, 1 generic error, 2 projected-OOM gate,
// 3 stage timeout (modeled budget or wall-clock -timeout), 4 the run
// finished but degraded (dropped databases or single-sequence fallback).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"afsysbench/internal/core"
	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
	"afsysbench/internal/report"
	"afsysbench/internal/resilience"
)

// Exit codes of the -run mode, one per failure class so schedulers and
// scripts can react without parsing output.
const (
	exitOK       = 0
	exitError    = 1
	exitOOMGate  = 2
	exitTimeout  = 3
	exitDegraded = 4
)

func main() {
	code, err := runCLI(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "afsysbench:", err)
	}
	os.Exit(code)
}

// run preserves the original error-only entry point (experiment paths and
// tests); the exit-code classification lives in runCLI.
func run(args []string) error {
	_, err := runCLI(args)
	return err
}

// modes are the first-argument words that select a tool with its own flag
// set; any other first argument is the suite's flag set below.
var modes = map[string]func(args []string, w io.Writer) error{
	"prof":   runProf,
	"memest": runMemest,
	"calib":  runCalib,
}

func runCLI(args []string) (int, error) {
	if len(args) > 0 {
		if mode, ok := modes[args[0]]; ok {
			return exitIf(mode(args[1:], os.Stdout))
		}
	}
	fs := flag.NewFlagSet("afsysbench", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage of afsysbench:\n"+
			"  afsysbench prof -h     function-level profiles of a sample on a platform\n"+
			"  afsysbench memest -h   static memory pre-check of a sample or AF3 JSON input\n"+
			"  afsysbench calib -h    calibration matrix behind every figure\n"+
			"  afsysbench [flags]     tables, figures and single runs:\n")
		fs.PrintDefaults()
	}
	list := fs.String("list", "", "list 'platforms' (Table I) or 'samples' (Table II)")
	exp := fs.String("exp", "", "experiment id: fig2..fig9, tab3..tab6, or 'all'")
	samplesFlag := fs.String("samples", "", "comma-separated sample subset (default: all five)")
	threadsFlag := fs.String("threads", "", "comma-separated thread counts for fig3 (default 1,2,4,6,8); -run uses the first (default 8)")
	runs := fs.Int("runs", 3, "repetitions for mean/CV experiments")
	csvDir := fs.String("csv", "", "also write <dir>/<exp>.csv for each experiment")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file (compare Go hotspots against metering attribution)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	runSample := fs.String("run", "", "run the end-to-end pipeline for one sample (Table II name) and exit by failure class")
	machine := fs.String("machine", "server", "machine for -run: server, desktop, desktop-upgraded, server-cxl")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline for -run (0 = none)")
	stageBudget := fs.String("stage-budget", "", "modeled per-stage budgets for -run, e.g. 'msa=3000,inference=400' (seconds)")
	faultsFlag := fs.String("faults", "", "fault spec for -run, e.g. 'transient:uniref_s:2,permanent:nt_rna_s,stall:120,memspike:40:1'")
	skipMemCheck := fs.Bool("skip-mem-check", false, "disable the projected-OOM gate for -run (stock AF3 behavior)")
	if err := fs.Parse(args); err != nil {
		return exitError, err
	}

	// Real Go-level profiles complement the simulated metering attribution:
	// pprof shows where this process actually burns cycles and bytes, the
	// metering model shows where the modeled paper-scale run would.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return exitError, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return exitError, fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "afsysbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "afsysbench: memprofile:", err)
			}
		}()
	}

	w := os.Stdout
	switch *list {
	case "platforms":
		return exitIf(report.RenderPlatforms(w))
	case "samples":
		return exitIf(report.RenderSamples(w))
	case "":
	default:
		return exitError, fmt.Errorf("unknown -list target %q", *list)
	}
	if *exp == "" && *runSample == "" {
		fs.Usage()
		return exitError, fmt.Errorf("nothing to do: pass -list, -exp or -run")
	}

	samples := core.SampleNames()
	if *samplesFlag != "" {
		samples = strings.Split(*samplesFlag, ",")
	}
	var threads []int
	if *threadsFlag != "" {
		for _, part := range strings.Split(*threadsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return exitError, fmt.Errorf("bad -threads value %q: %w", part, err)
			}
			threads = append(threads, n)
		}
	}

	suite, err := core.NewSuite()
	if err != nil {
		return exitError, err
	}
	suite.Runs = *runs

	if *runSample != "" {
		return runSingle(suite, singleRunConfig{
			sample:       *runSample,
			machine:      *machine,
			threads:      threads,
			timeout:      *timeout,
			budgetSpec:   *stageBudget,
			faultsSpec:   *faultsFlag,
			skipMemCheck: *skipMemCheck,
		})
	}

	if threads == nil {
		threads = core.MSAThreadSweep
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"tab1", "tab2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "tab3", "tab4", "tab5", "tab6", "batch", "sens"}
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := runExperiment(suite, id, samples, threads, *csvDir); err != nil {
			return exitError, fmt.Errorf("%s: %w", id, err)
		}
	}
	return exitOK, nil
}

// exitIf maps a plain error to the generic-failure exit code.
func exitIf(err error) (int, error) {
	if err != nil {
		return exitError, err
	}
	return exitOK, nil
}

// singleRunConfig is the parsed -run flag set.
type singleRunConfig struct {
	sample       string
	machine      string
	threads      []int
	timeout      time.Duration
	budgetSpec   string
	faultsSpec   string
	skipMemCheck bool
}

// runSingle executes one end-to-end pipeline run and classifies the exit.
func runSingle(suite *core.Suite, cfg singleRunConfig) (int, error) {
	in, mach, err := sampleOnMachine(cfg.sample, cfg.machine)
	if err != nil {
		return exitError, err
	}
	budget, err := parseStageBudget(cfg.budgetSpec)
	if err != nil {
		return exitError, err
	}
	faults, err := resilience.ParseFaults(cfg.faultsSpec)
	if err != nil {
		return exitError, err
	}
	threads := 8
	if len(cfg.threads) > 0 && cfg.threads[0] > 0 {
		threads = cfg.threads[0]
	}
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	pr, err := suite.RunPipelineCtx(ctx, in, mach, core.PipelineOptions{
		Threads:      threads,
		Budget:       budget,
		Faults:       faults,
		SkipMemCheck: cfg.skipMemCheck,
	})
	if err != nil {
		return exitCodeFor(err), err
	}
	if err := report.RenderPipelineRun(os.Stdout, pr); err != nil {
		return exitError, err
	}
	if pr.Resilience.Degraded {
		return exitDegraded, nil
	}
	return exitOK, nil
}

// sampleOnMachine resolves a Table II sample name and a platform name.
func sampleOnMachine(sample, machine string) (*inputs.Input, platform.Machine, error) {
	in, err := inputs.ByName(sample)
	if err != nil {
		return nil, platform.Machine{}, err
	}
	mach, err := platform.ByName(machine)
	return in, mach, err
}

// exitCodeFor maps a pipeline error to its failure class.
func exitCodeFor(err error) int {
	if err == nil {
		return exitOK
	}
	var oom core.ErrProjectedOOM
	if errors.As(err, &oom) {
		return exitOOMGate
	}
	var timeout resilience.ErrStageTimeout
	if errors.As(err, &timeout) {
		return exitTimeout
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return exitTimeout
	}
	return exitError
}

// parseStageBudget parses the -stage-budget grammar: comma-separated
// <stage>=<seconds> pairs where stage is msa or inference.
func parseStageBudget(spec string) (resilience.StageBudget, error) {
	var b resilience.StageBudget
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return b, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return b, fmt.Errorf("bad -stage-budget entry %q: want <stage>=<seconds>", part)
		}
		sec, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil || sec <= 0 {
			return b, fmt.Errorf("bad -stage-budget seconds in %q", part)
		}
		switch strings.TrimSpace(kv[0]) {
		case "msa":
			b.MSASeconds = sec
		case "inference":
			b.InferenceSeconds = sec
		default:
			return b, fmt.Errorf("unknown -stage-budget stage %q (want msa or inference)", kv[0])
		}
	}
	return b, nil
}

func runExperiment(suite *core.Suite, id string, samples []string, threads []int, csvDir string) error {
	w := os.Stdout
	machines := core.TwoPlatforms()
	emit := func(headers []string, rows [][]string) error {
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(csvDir, id+".csv"))
		if err != nil {
			return err
		}
		if err := report.CSV(f, headers, rows); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	switch id {
	case "tab1":
		return report.RenderPlatforms(w)
	case "tab2":
		return report.RenderSamples(w)
	case "fig2":
		rows := core.Figure2()
		if err := report.RenderFigure2(w, rows); err != nil {
			return err
		}
		h, rr := report.CSVFigure2(rows)
		return emit(h, rr)
	case "fig3":
		rows, err := suite.Figure3(samples, machines, threads)
		if err != nil {
			return err
		}
		if err := report.RenderFigure3(w, rows); err != nil {
			return err
		}
		h, rr := report.CSVFigure3(rows)
		return emit(h, rr)
	case "fig4":
		rows, err := suite.Figure4(samples, machines)
		if err != nil {
			return err
		}
		if err := report.RenderScaling(w, "Figure 4: MSA execution time across 1-8 threads", rows); err != nil {
			return err
		}
		h, rr := report.CSVScaling(rows)
		return emit(h, rr)
	case "fig5":
		rows, err := suite.Figure5()
		if err != nil {
			return err
		}
		if err := report.RenderScaling(w, "Figure 5: 6QNR thread-level performance and speedup", rows); err != nil {
			return err
		}
		h, rr := report.CSVScaling(rows)
		return emit(h, rr)
	case "fig6":
		rows, err := suite.Figure6(samples, machines)
		if err != nil {
			return err
		}
		if err := report.RenderFigure6(w, rows); err != nil {
			return err
		}
		h, rr := report.CSVFigure6(rows)
		return emit(h, rr)
	case "fig7":
		rows, err := suite.Figure7(samples, machines)
		if err != nil {
			return err
		}
		if err := report.RenderFigure7(w, rows); err != nil {
			return err
		}
		h, rr := report.CSVFigure7(rows)
		return emit(h, rr)
	case "fig8":
		rows, err := suite.Figure8(pick(samples, "2PV7", "1YY9", "promo"), machines)
		if err != nil {
			return err
		}
		if err := report.RenderFigure8(w, rows); err != nil {
			return err
		}
		h, rr := report.CSVFigure8(rows)
		return emit(h, rr)
	case "fig9":
		rows, err := suite.Figure9()
		if err != nil {
			return err
		}
		if err := report.RenderFigure9(w, rows); err != nil {
			return err
		}
		h, rr := report.CSVFigure9(rows)
		return emit(h, rr)
	case "tab3":
		cells, err := suite.Table3(pick(samples, "2PV7", "promo"))
		if err != nil {
			return err
		}
		if err := report.RenderTable3(w, cells); err != nil {
			return err
		}
		h, rr := report.CSVTable3(cells)
		return emit(h, rr)
	case "tab4":
		names := pick(samples, "2PV7", "promo")
		rows, err := suite.Table4(names)
		if err != nil {
			return err
		}
		var cols []string
		for _, n := range names {
			cols = append(cols, n+"/1T", n+"/4T")
		}
		if err := report.RenderTable4(w, rows, cols); err != nil {
			return err
		}
		h, rr := report.CSVTable4(rows)
		return emit(h, rr)
	case "tab5":
		rows, err := suite.Table5(pick(samples, "2PV7", "promo", "6QNR"))
		if err != nil {
			return err
		}
		if err := report.RenderTable5(w, rows); err != nil {
			return err
		}
		h, rr := report.CSVTable5(rows)
		return emit(h, rr)
	case "tab6":
		rows, err := suite.Table6()
		if err != nil {
			return err
		}
		if err := report.RenderTable6(w, rows); err != nil {
			return err
		}
		h, rr := report.CSVTable6(rows)
		return emit(h, rr)
	case "batch":
		return runBatchExperiment(suite, emit)
	case "sens":
		return runSensitivityExperiment(emit)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
}

// runBatchExperiment prints the deployment-strategy comparison (the §VI
// persistent-model and ParaFold-style pipelining extensions).
// runSensitivityExperiment prints the search engine's homolog-recovery
// curve and decoy false-positive rate (the quality the paper says keeps
// jackhmmer/nhmmer in the pipeline despite their cost).
func runSensitivityExperiment(emit func([]string, [][]string) error) error {
	w := os.Stdout
	fmt.Fprintln(w, "Search sensitivity (extension: engine quality regression)")
	rates := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	rep, err := hmmer.EvaluateSensitivity(rates, hmmer.SensitivityOptions{Seed: 1, PerRate: 12, Decoys: 300})
	if err != nil {
		return err
	}
	headers := []string{"divergence", "planted", "recovered", "recovery_pct"}
	var rows [][]string
	for _, p := range rep.Points {
		rows = append(rows, []string{
			report.F2(p.Divergence),
			fmt.Sprint(p.Planted),
			fmt.Sprint(p.Recovered),
			report.F1(100 * p.Recovery()),
		})
	}
	if err := report.Table(w, headers, rows); err != nil {
		return err
	}
	fmt.Fprintf(w, "false positives: %d / %d decoys (%.2f%%) at E <= 1e-3\n",
		rep.FalsePositives, rep.Decoys, 100*rep.FalsePositiveRate())
	return emit(headers, rows)
}

func runBatchExperiment(suite *core.Suite, emit func([]string, [][]string) error) error {
	w := os.Stdout
	fmt.Fprintln(w, "Batch deployment comparison (extension: §VI persistent model + pipelining)")
	queue := []string{"2PV7", "1YY9", "7RCE", "promo", "2PV7", "1YY9", "7RCE", "2PV7"}
	configs := []struct {
		label string
		opts  core.BatchOptions
	}{
		{"sequential-cold", core.BatchOptions{Threads: 6}},
		{"persistent-model", core.BatchOptions{Threads: 6, WarmModel: true}},
		{"pipelined", core.BatchOptions{Threads: 6, Pipelined: true}},
		{"pipelined+persistent", core.BatchOptions{Threads: 6, Pipelined: true, WarmModel: true}},
	}
	headers := []string{"deployment", "makespan_s", "requests_per_hour", "cpu_util_pct", "gpu_util_pct"}
	var rows [][]string
	for _, cfg := range configs {
		res, err := suite.RunBatch(queue, platform.Server(), cfg.opts)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			cfg.label,
			report.F0(res.Makespan),
			report.F1(res.Throughput()),
			report.F1(100 * res.CPUBusy / res.Makespan),
			report.F1(100 * res.GPUBusy / res.Makespan),
		})
	}
	if err := report.Table(w, headers, rows); err != nil {
		return err
	}
	return emit(headers, rows)
}

// pick intersects the user's sample list with the experiment's defaults,
// falling back to the defaults when the intersection is empty.
func pick(samples []string, defaults ...string) []string {
	set := map[string]bool{}
	for _, s := range samples {
		set[s] = true
	}
	var out []string
	for _, d := range defaults {
		if set[d] {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return defaults
	}
	return out
}
