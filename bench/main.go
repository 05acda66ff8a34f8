// Command bench is the repository's benchmark: six named workloads on two
// clocks (Go wall time and modeled paper-seconds), correctness beside
// every timing, and per-layer spans taken from outside the program.
//
//	go run ./bench                               all six workloads, tracing off
//	go run ./bench -trace 1                      the traced run: per-layer metrics
//	go run ./bench -workload hot_cache -seed 3   one workload (the driver's form)
//	go run ./bench -seed 3 -out A.json           append this run to a result set
//	go run ./bench -compare A.json B.json        noise-aware verdict per metric
//	go run ./bench -update-golden                regenerate golden/figures.json
//
// Run it from the repository root; sh bench/run.sh <flags> is the same with
// the build cache and temp files kept inside the checkout. See README.md
// beside this file.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"afsysbench/internal/stats"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line a single-workload run prints: exactly the keys
// the driver's contract names.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before it: what the contract's line has no room for.
type detail struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    bool           `json:"trace"`
	Smoke    bool           `json:"smoke,omitempty"`
	Env      envBlock       `json:"env"`
	Counts   map[string]int `json:"counts"`
	Failures []string       `json:"failures,omitempty"`
	// Layers names the per-layer metrics this traced run's passes wrote; the
	// rest of the verdict's metrics are layers the workload does not execute.
	Layers   []string `json:"layers,omitempty"`
	TraceOut string   `json:"trace_out,omitempty"`
}

const (
	detailPrefix = "detail "
	specPath     = "BENCHMARK.json" // from the repository root, where the harness runs
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	traceOut string
	smoke    bool
	out      string
}

func newWorkload(name string) workload {
	switch name {
	case "cold_msa":
		return &coldMSA{}
	case "sharded_cold":
		return &shardedCold{}
	case "hot_cache":
		return &hotCache{}
	case "ppi_two_tier":
		return &ppiTwoTier{}
	case "tenant_storm":
		return &tenantStorm{}
	case "paper_figures":
		return &paperFigures{}
	}
	return nil
}

// nominalRounds is each workload's measured round count at nominalSeconds.
var nominalRounds = map[string]int{
	"cold_msa":      3,
	"sharded_cold":  3,
	"hot_cache":     5,
	"ppi_two_tier":  20,
	"tenant_storm":  20,
	"paper_figures": 1,
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	// The driver passes "--trace 0|1"; "-trace" alone is also accepted.
	// Go's bool flags take no separate value, so a bare one is spelled out.
	for i, a := range args {
		if a == "-trace" || a == "--trace" {
			if i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1") {
				args[i] = "-trace=1"
			}
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var traceInt int
	var compare, updGolden, writeSpecFlag bool
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all six, each in its own child process)")
	fs.Uint64Var(&o.seed, "seed", 7, "drives every trace shuffle, mix draw and arrival series")
	fs.IntVar(&o.seconds, "seconds", nominalSeconds, "sizes the run: round counts scale with it (runs are request counts, not deadlines)")
	fs.IntVar(&traceInt, "trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace-event file of the traced run (default under the temp dir)")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink every workload to about two seconds (CI)")
	fs.StringVar(&o.out, "out", "", "with all workloads: write the result set here as JSON, appending to an existing one")
	fs.BoolVar(&compare, "compare", false, "compare two result sets: -compare A.json B.json")
	fs.BoolVar(&updGolden, "update-golden", false, "regenerate golden/figures.json")
	fs.BoolVar(&writeSpecFlag, "write-spec", false, "regenerate BENCHMARK.json from the harness's metric tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceInt != 0
	var err error
	switch {
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			return 2
		}
		err = runCompare(os.Stdout, fs.Arg(0), fs.Arg(1))
	case updGolden:
		err = updateGolden()
	case writeSpecFlag:
		err = writeSpec(specPath)
	case o.workload != "":
		var ok bool
		ok, err = runOne(o)
		if err == nil && !ok {
			return 1
		}
	default:
		var ok bool
		ok, err = runAll(o)
		if err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// measure runs a single workload in this process.
func measure(o options) (verdict, detail, error) {
	var v verdict
	var d detail
	w := newWorkload(o.workload)
	if w == nil {
		return v, d, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return v, d, errors.New("-seconds must be at least 1")
	}
	r := &run{
		seed:   o.seed,
		rounds: scale(nominalRounds[o.workload], o.seconds, o.smoke),
		smoke:  o.smoke,
		counts: make(map[string]int),
		layer:  make(map[string]float64),
	}
	if o.trace {
		r.tr = newTracer()
	}
	if err := execute(w, r); err != nil {
		return v, d, fmt.Errorf("%s: %w", o.workload, err)
	}

	d = detail{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke,
		Env: readEnv(), Counts: r.counts, Failures: r.failures}
	v = verdict{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	if o.trace {
		r.layer["client.op_p99_ms"] = stats.Percentile(r.lat, 99)
		var err error
		if v.Metrics, d.Layers, err = r.layerMetrics(o.workload); err != nil {
			return v, d, err
		}
		d.TraceOut = o.traceOut
		if d.TraceOut == "" {
			d.TraceOut = filepath.Join(os.TempDir(), "afbench-trace-"+o.workload+".json")
		}
		if err := r.tr.writeChrome(d.TraceOut); err != nil {
			return v, d, err
		}
	} else {
		values := r.endToEnd()
		for _, s := range e2eSpecs {
			v.Metrics[s.Name] = metric{values[s.Name], s.Unit}
		}
	}
	if v.Attempted < 1 {
		return v, d, fmt.Errorf("%s: nothing attempted", o.workload)
	}
	return v, d, nil
}

// runOne measures one workload and prints its metrics by name, the detail
// line, and last the contract's JSON line.
func runOne(o options) (bool, error) {
	v, d, err := measure(o)
	if err != nil {
		return false, err
	}
	fmt.Printf("workload %s  seed %d  seconds %d  trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	printMetrics(v.Metrics, o.trace)
	db, err := json.Marshal(d)
	if err != nil {
		return false, err
	}
	fmt.Println(detailPrefix + string(db))
	vb, err := json.Marshal(v)
	if err != nil {
		return false, err
	}
	fmt.Println(string(vb))
	return v.Correct, nil
}

func printMetrics(m map[string]metric, layers bool) {
	var names []string
	if layers {
		for _, s := range layerSpecs {
			names = append(names, s.Name)
		}
	} else {
		for _, s := range e2eSpecs {
			names = append(names, s.Name)
		}
	}
	for _, name := range names {
		fmt.Printf("  %-34s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// record is one workload run as kept in a result set.
type record struct {
	detail
	verdict
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Env     envBlock `json:"env"`
	Seed    uint64   `json:"seed"`
	Seconds int      `json:"seconds"`
	Runs    []record `json:"runs"`
}

// runAll runs every workload, each in its own child process — a re-exec of
// this binary — so one workload's heap and GC pacing cannot leak into the
// next, and reads each child's JSON from its standard output.
func runAll(o options) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	set := resultSet{Env: readEnv(), Seed: o.seed, Seconds: o.seconds}
	if o.out != "" {
		// An existing set is appended to, so alternating parent/change pairs
		// can each add their run to their side's file.
		if prev, err := loadSet(o.out); err == nil {
			set.Runs = prev.Runs
		} else if !errors.Is(err, os.ErrNotExist) {
			return false, fmt.Errorf("-out %s exists but is not a result set: %w", o.out, err)
		}
	}
	allCorrect := true
	for _, spec := range workloadSpecs {
		args := []string{"-workload", spec.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
		if o.trace {
			args = append(args, "-trace", "1")
			if o.traceOut != "" {
				ext := filepath.Ext(o.traceOut)
				args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ext)+"-"+spec.Name+ext)
			}
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		rec, err := runChild(self, args)
		if err != nil {
			return false, fmt.Errorf("%s: %w", spec.Name, err)
		}
		set.Runs = append(set.Runs, rec)
		allCorrect = allCorrect && rec.Correct
	}
	if o.out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
		fmt.Println("wrote", o.out)
	}
	return allCorrect, nil
}

// runChild runs one workload in a child, echoes its report, and parses
// the detail line and the final JSON line.
func runChild(self string, args []string) (record, error) {
	var rec record
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	for _, line := range lines {
		if !strings.HasPrefix(line, detailPrefix) && !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	if len(lines) < 2 {
		if runErr != nil {
			return rec, runErr
		}
		return rec, errors.New("child printed no result")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.verdict); err != nil {
		return rec, fmt.Errorf("child's last line: %w", err)
	}
	if d, ok := strings.CutPrefix(lines[len(lines)-2], detailPrefix); ok {
		if err := json.Unmarshal([]byte(d), &rec.detail); err != nil {
			return rec, fmt.Errorf("child's detail line: %w", err)
		}
	}
	status := "ok"
	if !rec.Correct {
		status = "FAILED: " + strings.Join(rec.Failures, "; ")
	}
	fmt.Printf("  %-34s %d attempted, %d failed — %s\n\n", "failed_share", rec.Attempted, rec.Failed, status)
	return rec, nil
}
