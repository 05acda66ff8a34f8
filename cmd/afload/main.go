// Command afload is the closed-loop load generator for the serving
// subsystem. It synthesizes a deterministic weighted request mix, drives it
// through -concurrency closed-loop clients (each submits, waits for the
// terminal state, then submits the next), and reports throughput, latency
// percentiles (p50/p95/p99), cache hit rate and shed rate.
//
//	afload -addr http://host:8642 -n 100 -mix promo:1,1YY9:9
//	    drives a running afserve over its HTTP API.
//
//	afload -n 30 -mix promo:1,1YY9:9 -compare-cache
//	    (no -addr) embeds the scheduler in-process and runs the same trace
//	    with the cache enabled and disabled.
//
//	afload -ppi 6 -cache-dir /var/cache/af -warm -compare-cache
//	    runs the all-vs-all PPI screening mix over the two-tier chain
//	    cache: a warm pass precomputes the disk tier, the measured pass
//	    starts with a cold memory tier, and -compare-cache adds the
//	    cache-off and request-keyed baselines with the modeled makespan
//	    improvement of chain-level keys.
//
//	afload -qos -tenants 'inter:w=8,n=16;storm:w=1,r=600,rps=4,n=160,shape=bursty'
//	    drives the tenant traces open-loop through the tenant-aware
//	    scheduler and prints the per-tenant fairness block.
//
// The request trace is a pure function of -seed, -mix/-ppi and -n, so runs
// are reproducible end to end. The serving gates are not modes of this
// command: they are the rows of TestGates in internal/scenario.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/qos"
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
	qos          bool
	tenants      string
	// qosTenants is -qos's parsed tenant list: -tenants, or a single default
	// tenant over -mix and -n.
	qosTenants []scenario.Tenant
}

// qosIgnores are the flags -qos has no use for; parseFlags rejects them
// instead of letting the mode silently drop them.
var qosIgnores = []string{"ppi", "warm", "compare-cache", "cache-dir"}

// inprocOnly are the flags that mean nothing to a remote afserve.
var inprocOnly = []string{"qos", "compare-cache", "cache-dir", "warm", "batch"}

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
	fs.BoolVar(&o.qos, "qos", false, "in-process only: drive the trace open-loop through the tenant-aware scheduler (per-tenant admission, WFQ, brownout) and report the fairness block")
	fs.StringVar(&o.tenants, "tenants", "", "-qos tenant spec: 'name:w=8,rps=0.5,n=20,shape=bursty,mix=2PV7:3|7RCE:2;...' (keys w/r/b set the quota, rps/n/shape/mix the offered trace)")
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
	if o.n <= 0 || o.concurrency <= 0 {
		return o, fmt.Errorf("-n and -concurrency must be positive")
	}
	if o.addr != "" {
		for _, name := range inprocOnly {
			if given(name) {
				return o, fmt.Errorf("-%s needs the in-process mode (drop -addr)", name)
			}
		}
	}
	if o.tenants != "" && !o.qos {
		return o, fmt.Errorf("per-tenant traces (-tenants) need -qos")
	}
	if o.qos {
		for _, name := range qosIgnores {
			if given(name) {
				return o, fmt.Errorf("-qos drives its own open-loop tenant traces through a cache-less scheduler; drop -%s", name)
			}
		}
	}
	if err := o.Validate(); err != nil {
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
	if o.qos {
		if o.tenants != "" && explicit["n"] {
			return o, fmt.Errorf("-tenants carries per-tenant request counts (n=); a global -n would be ignored, drop it")
		}
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

func printStats(w io.Writer, st serve.LoadStats) {
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
	if r := st.Routing; r != nil && r.Shed+r.ChainRetries+r.PartialMSA > 0 {
		fmt.Fprintf(w, "%-10s routing: %d shed, %d chain retries, %d partial-msa\n",
			"", r.Shed, r.ChainRetries, r.PartialMSA)
	}
}

func printFairness(w io.Writer, rep *serve.FairnessReport) {
	if rep == nil {
		return
	}
	mode := "wfq"
	if rep.FIFO {
		mode = "fifo"
	}
	for _, ts := range rep.Tenants {
		row := rep.TenantRow(ts.Tenant)
		fmt.Fprintf(w, "tenant %-8s (%s, w=%g): offered %d, admitted %d, shed %d (qf=%d rl=%d bo=%d), degraded %d | modeled p50 %.0fms p95 %.0fms\n",
			ts.Tenant, mode, ts.Weight, ts.Offered, ts.Admitted, ts.Shed(),
			ts.ShedQueueFull, ts.ShedRateLimited, ts.ShedBrownout, ts.Degraded(),
			row.Latency.P50Ms, row.Latency.P95Ms)
	}
	fmt.Fprintf(w, "digests: decisions %s, dispatch %s\n", rep.DecisionDigest, rep.DispatchDigest)
}

func run(args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.qos {
		return runQoS(o, out)
	}
	_, err = runLoad(o, out)
	return err
}

// runQoS is the -qos mode: one tenant-aware open-loop pass over the
// -tenants spec (or a single default tenant over -mix), reported with the
// per-tenant fairness block.
func runQoS(o options, out io.Writer) error {
	suite, err := core.NewSuite()
	if err != nil {
		return err
	}
	f := o.Flags
	f.CacheMB = 0
	cfg, err := f.Config()
	if err != nil {
		return err
	}
	stats, err := scenario.QoSPass(suite, cfg, o.qosTenants, o.seed, qos.Config{}, "qos")
	if err != nil {
		return err
	}
	printStats(out, stats)
	printFairness(out, stats.Fairness)
	return nil
}

// runLoad is the plain measurement: the trace closed-loop against a remote
// afserve, or against in-process servers — the measured pass, optionally
// after a -warm precompute and followed by the -compare-cache baselines. It
// returns every pass it printed, by label.
func runLoad(o options, out io.Writer) (map[string]serve.LoadStats, error) {
	trace, err := scenario.Trace(o.mix, o.ppi, o.n, o.seed)
	if err != nil {
		return nil, err
	}
	passes := make(map[string]serve.LoadStats)
	if o.addr != "" {
		t := scenario.HTTP{Base: strings.TrimRight(o.addr, "/"), Client: &http.Client{Timeout: 5 * time.Minute}}
		stats := scenario.ClosedLoop(t, trace, o.concurrency, o.Threads)
		stats.Label = "remote"
		printStats(out, stats)
		passes[stats.Label] = stats
		return passes, nil
	}
	suite, err := core.NewSuite()
	if err != nil {
		return nil, err
	}
	pass := func(label string, f serve.Flags, requestKeyed, spill bool) (serve.LoadStats, error) {
		cfg, err := f.Config()
		if err != nil {
			return serve.LoadStats{}, err
		}
		cfg.RequestScopedKeys = requestKeyed
		st := scenario.ClosedPass(suite, cfg, trace, o.concurrency, label, spill)
		printStats(out, st)
		passes[label] = st
		return st, nil
	}
	if o.warm {
		// The precompute pass fills the disk tier through a throwaway memory
		// tier, so the measured pass below starts with a cold memory tier
		// but a warm disk.
		if _, err := pass("warm", o.Flags, false, true); err != nil {
			return nil, err
		}
	}
	withCache, err := pass("with-cache", o.Flags, false, false)
	if err != nil || !o.compareCache {
		return passes, err
	}
	noCache := o.Flags
	noCache.CacheMB, noCache.CacheDir = 0, ""
	nc, err := pass("no-cache", noCache, false, false)
	if err != nil {
		return nil, err
	}
	if nc.Throughput > 0 {
		fmt.Fprintf(out, "cache throughput speedup: %.2fx (hit rate %.1f%%)\n",
			withCache.Throughput/nc.Throughput, 100*withCache.CacheHitRate)
	}
	// The request-keyed memory-only baseline: what the serving tier looked
	// like before chain-level keys. Its modeled makespan over the
	// chain-keyed pass's is the deployment-scale win of sharing chains
	// across complexes.
	memOnly := o.Flags
	memOnly.CacheDir = ""
	rk, err := pass("req-keyed", memOnly, true, false)
	if err != nil {
		return nil, err
	}
	if withCache.ModeledMakespan > 0 {
		fmt.Fprintf(out, "chain-keyed modeled makespan improvement over request-keyed: %.2fx\n",
			rk.ModeledMakespan/withCache.ModeledMakespan)
	}
	return passes, nil
}
