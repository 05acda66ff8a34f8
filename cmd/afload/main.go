// Command afload is the closed-loop load generator for the serving
// subsystem. It synthesizes a deterministic weighted request mix, drives it
// through -concurrency closed-loop clients (each submits, waits for the
// terminal state, then submits the next), and reports throughput, latency
// percentiles (p50/p95/p99), cache hit rate and shed rate.
//
// Two targets:
//
//	afload -addr http://host:8642 -n 100 -mix promo:1,1YY9:9
//	    drives a running afserve over its HTTP API.
//
//	afload -n 30 -mix promo:1,1YY9:9 -compare-cache -json BENCH_serve.json
//	    (no -addr) embeds the scheduler in-process, runs the same trace
//	    with the cache enabled and disabled, and writes the comparison —
//	    the `make serve-bench` artifact.
//
//	afload -chaos -n 120 -mix 2PV7:4,1YY9:1
//	    (no -addr) runs the seeded fault storm of chaos.go against a live
//	    in-process scheduler and exits non-zero if any fault-tolerance
//	    invariant breaks — the `make chaos` gate.
//
//	afload -ppi 6 -cache-dir /var/cache/af -warm -compare-cache
//	    runs the all-vs-all PPI screening mix over the two-tier chain
//	    cache: a warm pass precomputes the disk tier, the measured pass
//	    starts with a cold memory tier, and -compare-cache adds the
//	    cache-off and request-keyed baselines with the modeled makespan
//	    improvement of chain-level keys.
//
//	afload -chaos-disk -ppi 4
//	    runs the disk-fault chaos gate of chaosdisk.go: injected disk
//	    faults, a vandalized store directory, a restart and a fully dark
//	    disk, asserting that no request ever fails or returns a result
//	    different from fresh compute — the `make chaos-disk` gate.
//
// The request trace is a pure function of -seed, -mix/-ppi and -n, so runs
// are reproducible end to end. How a scenario is wired, driven and judged
// lives in internal/scenario; this package is flag parsing, the mode table
// and what each mode owns — its serve.Config delta, its fault plan, its
// assertions.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/scenario"
	"afsysbench/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "afload:", err)
		os.Exit(1)
	}
}

type options struct {
	// Flags are the flags shared with afserve: the in-process server's
	// wiring.
	serve.Flags
	addr         string
	n            int
	concurrency  int
	mix          string
	ppi          int
	seed         uint64
	warm         bool
	compareCache bool
	tenants      string
	// qosTenants is the -qos mode's parsed tenant list: -tenants, or a single
	// default tenant over -mix and -n.
	qosTenants []scenario.Tenant
	jsonPath   string
	// mode is the selected entry of modes; nil is the plain closed-loop
	// measurement.
	mode *mode
	// mixSet records whether -mix was given explicitly, so modes with a
	// better-suited default (the batch sweep wants small inputs) can tell
	// "caller chose the stock mix" from "caller chose nothing".
	mixSet bool
}

// mode is one scenario afload runs instead of the plain closed-loop
// measurement, selected by the boolean flag -name. Every mode is
// in-process, and at most one may be selected.
type mode struct {
	name, usage string
	run         func(o options, out *os.File) error
	// ignores lists the flags the mode has no use for; parseFlags rejects
	// them instead of letting the mode silently drop them, saying why: what
	// the mode does in their place.
	ignores []string
	why     string
}

var modes = []mode{
	{"chaos", "in-process only: run the seeded fault storm and assert the fault-tolerance invariants instead of measuring throughput", runChaos,
		[]string{"ppi", "cache-dir", "warm", "compare-cache", "batch"},
		"drives its own trace through a cache-less, unbatched scheduler"},
	{"chaos-disk", "in-process only: run the disk-fault chaos gate against the persistent tier and assert the crash-safety invariants", runChaosDisk,
		[]string{"warm", "compare-cache", "batch"},
		"runs its own warm/cold passes, unbatched"},
	{"batch-sweep", "in-process only: sweep batch size, offered load and bucket count, report the compile-dominated -> compute-dominated crossover, and merge a batch_crossover section into -json", runBatchSweep,
		[]string{"ppi", "warm", "compare-cache", "cache-dir", "batch"},
		"drives its own batching passes"},
	{"qos", "in-process only: drive the trace open-loop through the tenant-aware scheduler (per-tenant admission, WFQ, brownout) and report the fairness block", runQoS,
		[]string{"ppi", "warm", "compare-cache", "cache-dir"},
		"drives its own open-loop tenant traces through a cache-less scheduler"},
	{"fairness", "in-process only: run the adversarial screening-storm fairness gate and exit non-zero if QoS fails to protect the victim tenant", runFairness,
		[]string{"ppi", "warm", "compare-cache", "cache-dir", "mix", "n", "batch"},
		"fixes its own victim/storm traces and batching passes"},
}

// inprocOnly are the flags (besides the modes) that mean nothing to a
// remote afserve.
var inprocOnly = []string{"compare-cache", "cache-dir", "warm", "batch"}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("afload", flag.ContinueOnError)
	o.Register(fs, 4)
	fs.StringVar(&o.addr, "addr", "", "afserve base URL; empty runs the scheduler in-process (which the -machine, pool, cache and batch flags configure)")
	fs.IntVar(&o.n, "n", 30, "total requests")
	fs.IntVar(&o.concurrency, "concurrency", 4, "closed-loop client count")
	fs.StringVar(&o.mix, "mix", "promo:1,1YY9:9", "weighted sample mix, e.g. promo:1,1YY9:9")
	fs.IntVar(&o.ppi, "ppi", 0, "all-vs-all PPI screen over the first N pool proteins (overrides -mix/-n)")
	fs.Uint64Var(&o.seed, "seed", 7, "trace seed (trace is a pure function of seed, mix, n)")
	fs.BoolVar(&o.warm, "warm", false, "in-process only: precompute the trace into the disk tier, then measure with a cold memory tier (needs -cache-dir)")
	fs.BoolVar(&o.compareCache, "compare-cache", false, "in-process only: rerun the trace cache-disabled and request-keyed and report the speedups")
	fs.StringVar(&o.tenants, "tenants", "", "-qos tenant spec: 'name:w=8,rps=0.5,n=20,shape=bursty,mix=2PV7:3|7RCE:2;...' (keys w/r/b set the quota, rps/n/shape/mix the offered trace)")
	fs.StringVar(&o.jsonPath, "json", "", "write the report JSON to this path")
	selected := make([]bool, len(modes))
	for i, m := range modes {
		fs.BoolVar(&selected[i], m.name, false, m.usage)
	}
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	// given reports whether the caller chose a flag's value. -mix and -n
	// count whenever they appear on the command line (typing out the stock
	// value is still a choice: -ppi silently overriding the default -mix is
	// fine, overriding an explicit one is a footgun); every other flag
	// counts when its value differs from its default.
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	given := func(name string) bool {
		if name == "mix" || name == "n" {
			return explicit[name]
		}
		f := fs.Lookup(name)
		return f.Value.String() != f.DefValue
	}
	o.mixSet = explicit["mix"]
	for i := range modes {
		if !selected[i] {
			continue
		}
		if o.mode != nil {
			return o, fmt.Errorf("-%s and -%s are mutually exclusive (each mode runs its own passes; drop one)", o.mode.name, modes[i].name)
		}
		o.mode = &modes[i]
	}
	if o.n <= 0 || o.concurrency <= 0 {
		return o, fmt.Errorf("-n and -concurrency must be positive")
	}
	if o.addr != "" {
		if o.mode != nil {
			return o, fmt.Errorf("-%s needs the in-process mode (drop -addr)", o.mode.name)
		}
		for _, name := range inprocOnly {
			if given(name) {
				return o, fmt.Errorf("-%s needs the in-process mode (drop -addr)", name)
			}
		}
	}
	qosMode := o.mode != nil && o.mode.name == "qos"
	if o.tenants != "" && !qosMode {
		return o, fmt.Errorf("per-tenant traces (-tenants) need -qos (the fairness gate fixes its own scenario)")
	}
	// One mode takes a shared flag on its own terms: the disk gate reads
	// -cache-dir at any -cache-mb (it opens, closes and vandalizes the tier
	// itself). Validate what is left.
	shared := o.Flags
	if o.mode != nil {
		for _, name := range o.mode.ignores {
			if given(name) {
				return o, fmt.Errorf("-%s %s; drop -%s", o.mode.name, o.mode.why, name)
			}
		}
		if o.mode.name == "chaos-disk" {
			shared.CacheDir = ""
		}
	}
	if err := shared.Validate(); err != nil {
		return o, err
	}
	if o.warm && o.CacheDir == "" {
		return o, fmt.Errorf("-warm needs -cache-dir (the tier it precomputes into)")
	}
	if o.compareCache && o.CacheMB <= 0 {
		return o, fmt.Errorf("-compare-cache needs the memory tier (-cache-mb > 0)")
	}
	if o.ppi < 0 || o.ppi > inputs.PPIPoolSize {
		return o, fmt.Errorf("-ppi must be in [0,%d]", inputs.PPIPoolSize)
	}
	if o.ppi > 0 && (explicit["mix"] || explicit["n"]) {
		return o, fmt.Errorf("-ppi derives the all-vs-all trace itself and overrides -mix and -n; drop them")
	}
	if qosMode && o.tenants != "" && explicit["n"] {
		return o, fmt.Errorf("-tenants carries per-tenant request counts (n=); a global -n would be ignored, drop it")
	}
	if qosMode {
		spec := o.tenants
		if spec == "" {
			spec = fmt.Sprintf("default:n=%d", o.n)
		}
		var err error
		if o.qosTenants, err = scenario.ParseTenants(spec, o.mix); err != nil {
			return o, err
		}
	}
	return o, nil
}

// closedPass is one in-process server lifetime under closed-loop load: a
// server wired from f — tune, when non-nil, then sets the Config fields the
// caller's mode owns — driven through the trace, scraped, and its disk tier
// closed. spill pushes the surviving memory tier to disk before the server
// stops (the -warm precompute).
func closedPass(suite *core.Suite, f serve.Flags, tune func(*serve.Config), trace []string, concurrency int, label string, spill bool) (serve.LoadStats, error) {
	cfg, err := f.Config()
	if err != nil {
		return serve.LoadStats{}, err
	}
	if cfg.DiskCache != nil {
		defer cfg.DiskCache.Close()
	}
	if tune != nil {
		tune(&cfg)
	}
	s := serve.NewWithSuite(suite, cfg)
	s.Start()
	stats := scenario.ClosedLoop(scenario.InProc{S: s}, trace, concurrency, f.Threads)
	if spill {
		s.SpillCache()
	}
	s.Stop()
	stats.Label = label
	scenario.Collect(s, &stats, 0, 0)
	return stats, nil
}

func printStats(w *os.File, st serve.LoadStats) {
	fmt.Fprintf(w, "%-10s %3d req: %d done, %d shed, %d failed | %.1fs wall, %.2f req/s | p50 %.0fms p95 %.0fms p99 %.0fms | hit rate %.1f%% shed rate %.1f%%\n",
		st.Label, st.Requests, st.Completed, st.Shed, st.Failed,
		st.WallSeconds, st.Throughput,
		st.Latency.P50Ms, st.Latency.P95Ms, st.Latency.P99Ms,
		100*st.CacheHitRate, 100*st.ShedRate)
	if st.ChainMemHits+st.ChainDiskHits+st.ChainFresh > 0 {
		fmt.Fprintf(w, "%-10s chains: %d mem (%.1f%%), %d disk (%.1f%%), %d fresh\n",
			"", st.ChainMemHits, 100*st.MemHitRate, st.ChainDiskHits, 100*st.DiskHitRate, st.ChainFresh)
	}
	if st.ModeledSerial > 0 {
		fmt.Fprintf(w, "%-10s modeled: phase-split makespan %.0fs vs serial %.0fs -> %.2fx\n",
			"", st.ModeledMakespan, st.ModeledSerial, st.ModeledSpeedup)
	}
	if r := st.Routing; r != nil && r.Shed+r.StageRetries+r.ChainsRestored+r.PartialMSA > 0 {
		fmt.Fprintf(w, "%-10s routing: %d shed, %d stage retries, %d chains restored, %d partial-msa\n",
			"", r.Shed, r.StageRetries, r.ChainsRestored, r.PartialMSA)
	}
}

// report starts the BENCH_serve.json document with the run parameters.
func (o options) report(mix string, requests int) serve.LoadReport {
	return serve.LoadReport{
		Mix:         mix,
		Requests:    requests,
		Concurrency: o.concurrency,
		Threads:     o.Threads,
		MSAWorkers:  o.MSAWorkers,
		GPUWorkers:  o.GPUWorkers,
		QueueDepth:  o.Queue,
		Seed:        o.seed,
	}
}

func run(args []string, out *os.File) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.mode != nil {
		return o.mode.run(o, out)
	}
	return runLoad(o, out)
}

// runLoad is the plain measurement: the trace closed-loop against a remote
// afserve, or against in-process servers — the measured pass, optionally
// after a -warm precompute and followed by the -compare-cache baselines.
func runLoad(o options, out *os.File) error {
	trace, err := scenario.Trace(o.mix, o.ppi, o.n, o.seed)
	if err != nil {
		return err
	}
	mixLabel := o.mix
	if o.ppi > 0 {
		mixLabel = fmt.Sprintf("ppi all-vs-all over %d pool proteins", o.ppi)
	}
	report := o.report(mixLabel, len(trace))
	report.CacheMB = o.CacheMB
	report.CacheDir = o.CacheDir

	if o.addr != "" {
		t := scenario.HTTP{Base: strings.TrimRight(o.addr, "/"), Client: &http.Client{Timeout: 5 * time.Minute}}
		stats := scenario.ClosedLoop(t, trace, o.concurrency, o.Threads)
		stats.Label = "remote"
		printStats(out, stats)
		report.WithCache = &stats
	} else {
		suite, err := core.NewSuite()
		if err != nil {
			return err
		}
		pass := func(label string, f serve.Flags, tune func(*serve.Config), spill bool) (*serve.LoadStats, error) {
			st, err := closedPass(suite, f, tune, trace, o.concurrency, label, spill)
			if err != nil {
				return nil, err
			}
			printStats(out, st)
			return &st, nil
		}
		if o.warm {
			// The precompute pass fills the disk tier through a throwaway
			// memory tier, so the measured pass below starts with a cold
			// memory tier but a warm disk.
			if report.Warm, err = pass("warm", o.Flags, nil, true); err != nil {
				return err
			}
		}
		if report.WithCache, err = pass("with-cache", o.Flags, nil, false); err != nil {
			return err
		}
		if o.compareCache {
			noCache := o.Flags
			noCache.CacheMB, noCache.CacheDir = 0, ""
			if report.NoCache, err = pass("no-cache", noCache, nil, false); err != nil {
				return err
			}
			if report.NoCache.Throughput > 0 {
				report.ThroughputSpeedup = report.WithCache.Throughput / report.NoCache.Throughput
				fmt.Fprintf(out, "cache throughput speedup: %.2fx (hit rate %.1f%%)\n",
					report.ThroughputSpeedup, 100*report.WithCache.CacheHitRate)
			}
			// The request-keyed memory-only baseline: what the serving tier
			// looked like before chain-level keys. Its modeled makespan over
			// the chain-keyed pass's is the deployment-scale win of sharing
			// chains across complexes.
			memOnly := o.Flags
			memOnly.CacheDir = ""
			report.Baseline, err = pass("req-keyed", memOnly, func(c *serve.Config) { c.RequestScopedKeys = true }, false)
			if err != nil {
				return err
			}
			if report.WithCache.ModeledMakespan > 0 {
				report.MakespanImprovement = report.Baseline.ModeledMakespan / report.WithCache.ModeledMakespan
				fmt.Fprintf(out, "chain-keyed modeled makespan improvement over request-keyed: %.2fx\n",
					report.MakespanImprovement)
			}
		}
	}
	if o.jsonPath != "" {
		return scenario.WriteJSON(out, o.jsonPath, report)
	}
	return nil
}
