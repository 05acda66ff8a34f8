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
	faults, err := resilience.ParseRunFaults(*faultsFlag)
	if err != nil {
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
			if n < 1 {
				return exitError, fmt.Errorf("bad -threads value %q: a thread count is at least 1", part)
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
			faults:       faults,
			skipMemCheck: *skipMemCheck,
		})
	}

	if threads == nil {
		threads = core.MSAThreadSweep
	}
	var todo []artifact
	for _, a := range artifacts {
		if *exp == "all" || a.id == *exp {
			todo = append(todo, a)
		}
	}
	if len(todo) == 0 {
		return exitError, fmt.Errorf("unknown experiment %q", *exp)
	}
	for i, a := range todo {
		if i > 0 {
			fmt.Fprintln(w)
		}
		x := expArgs{suite: suite, samples: samples, threads: threads}
		if a.samples != nil {
			x.samples = pick(samples, a.samples...)
		}
		rows, err := a.run(w, x)
		if err == nil && rows != nil && *csvDir != "" {
			err = writeCSV(*csvDir, a.id, rows)
		}
		if err != nil {
			return exitError, fmt.Errorf("%s: %w", a.id, err)
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
	faults       resilience.Faults
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
	threads := 8
	if len(cfg.threads) > 0 {
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
		Faults:       cfg.faults,
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

// expArgs is what an artifact's producer reads from the command line.
type expArgs struct {
	suite   *core.Suite
	samples []string
	threads []int // Figure 3's thread sweep
}

// artifact is one paper table or figure, or one extension experiment.
type artifact struct {
	id string
	// samples are the artifact's own sample defaults, narrowed by -samples
	// (see pick); nil takes -samples as given.
	samples []string
	// run prints the artifact and returns its typed rows for -csv (nil
	// for the two tables that have none).
	run func(w io.Writer, x expArgs) (rows any, err error)
}

// typed pairs a producer with its renderer.
func typed[R any](produce func(x expArgs) ([]R, error), render func(io.Writer, []R) error) func(io.Writer, expArgs) (any, error) {
	return func(w io.Writer, x expArgs) (any, error) {
		rows, err := produce(x)
		if err != nil {
			return nil, err
		}
		return rows, render(w, rows)
	}
}

// artifacts is every -exp id, in the order -exp all prints them.
var artifacts = []artifact{
	{"tab1", nil, func(w io.Writer, _ expArgs) (any, error) { return nil, report.RenderPlatforms(w) }},
	{"tab2", nil, func(w io.Writer, _ expArgs) (any, error) { return nil, report.RenderSamples(w) }},
	{"fig2", nil, typed(func(expArgs) ([]core.MemRow, error) { return core.Figure2(), nil }, report.RenderFigure2)},
	{"fig3", nil, typed(func(x expArgs) ([]core.PhaseRow, error) {
		return x.suite.Figure3(x.samples, core.TwoPlatforms(), x.threads)
	}, report.RenderFigure3)},
	{"fig4", nil, typed(func(x expArgs) ([]core.ScalingRow, error) {
		return x.suite.Figure4(x.samples, core.TwoPlatforms())
	}, func(w io.Writer, rows []core.ScalingRow) error {
		return report.RenderScaling(w, "Figure 4: MSA execution time across 1-8 threads", rows)
	})},
	{"fig5", nil, typed(func(x expArgs) ([]core.ScalingRow, error) { return x.suite.Figure5() },
		func(w io.Writer, rows []core.ScalingRow) error {
			return report.RenderScaling(w, "Figure 5: 6QNR thread-level performance and speedup", rows)
		})},
	{"fig6", nil, typed(func(x expArgs) ([]core.InferenceRow, error) {
		return x.suite.Figure6(x.samples, core.TwoPlatforms())
	}, report.RenderFigure6)},
	{"fig7", nil, typed(func(x expArgs) ([]core.ShareRow, error) {
		return x.suite.Figure7(x.samples, core.TwoPlatforms())
	}, report.RenderFigure7)},
	{"fig8", []string{"2PV7", "1YY9", "promo"}, typed(func(x expArgs) ([]core.BreakdownRow, error) {
		return x.suite.Figure8(x.samples, core.TwoPlatforms())
	}, report.RenderFigure8)},
	{"fig9", nil, typed(func(x expArgs) ([]core.LayerRow, error) { return x.suite.Figure9() }, report.RenderFigure9)},
	{"tab3", []string{"2PV7", "promo"}, typed(func(x expArgs) ([]core.Table3Cell, error) {
		return x.suite.Table3(x.samples)
	}, report.RenderTable3)},
	{"tab4", []string{"2PV7", "promo"}, func(w io.Writer, x expArgs) (any, error) {
		rows, err := x.suite.Table4(x.samples)
		if err != nil {
			return nil, err
		}
		var cols []string
		for _, n := range x.samples {
			cols = append(cols, n+"/1T", n+"/4T")
		}
		return rows, report.RenderTable4(w, rows, cols)
	}},
	{"tab5", []string{"2PV7", "promo", "6QNR"}, typed(func(x expArgs) ([]core.Table5Row, error) {
		return x.suite.Table5(x.samples)
	}, report.RenderTable5)},
	{"tab6", nil, typed(func(x expArgs) ([]core.Table6Row, error) { return x.suite.Table6() }, report.RenderTable6)},
	{"batch", nil, typed(func(x expArgs) ([]core.DeploymentRow, error) {
		return x.suite.CompareDeployments()
	}, report.RenderDeployments)},
	{"sens", nil, func(w io.Writer, _ expArgs) (any, error) {
		rates := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
		rep, err := hmmer.EvaluateSensitivity(rates, hmmer.SensitivityOptions{Seed: 1, PerRate: 12, Decoys: 300})
		if err != nil {
			return nil, err
		}
		return rep.Points, report.RenderSensitivity(w, rep)
	}},
}

// writeCSV writes an artifact's rows to <dir>/<id>.csv.
func writeCSV(dir, id string, rows any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	if err := report.WriteCSV(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
