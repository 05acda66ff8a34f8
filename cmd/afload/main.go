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
// are reproducible end to end.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"afsysbench/internal/batch"
	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
	"afsysbench/internal/resilience"
	"afsysbench/internal/rng"
	"afsysbench/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "afload:", err)
		os.Exit(1)
	}
}

type options struct {
	addr         string
	n            int
	concurrency  int
	mix          string
	ppi          int
	seed         uint64
	machine      string
	threads      int
	msaWorkers   int
	gpuWorkers   int
	queue        int
	cacheMB      int
	cacheDir     string
	warm         bool
	compareCache bool
	chaos        bool
	chaosDisk    bool
	batch        bool
	batchBuckets string
	maxBatch     int
	batchSweep   bool
	qosMode      bool
	fairness     bool
	tenants      string
	traceShape   string
	jsonPath     string
	// mixSet records whether -mix was given explicitly, so modes with a
	// better-suited default (the batch sweep wants small inputs) can tell
	// "caller chose the stock mix" from "caller chose nothing".
	mixSet bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("afload", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "", "afserve base URL; empty runs the scheduler in-process")
	fs.IntVar(&o.n, "n", 30, "total requests")
	fs.IntVar(&o.concurrency, "concurrency", 4, "closed-loop client count")
	fs.StringVar(&o.mix, "mix", "promo:1,1YY9:9", "weighted sample mix, e.g. promo:1,1YY9:9")
	fs.IntVar(&o.ppi, "ppi", 0, "all-vs-all PPI screen over the first N pool proteins (overrides -mix/-n)")
	fs.Uint64Var(&o.seed, "seed", 7, "trace seed (trace is a pure function of seed, mix, n)")
	fs.StringVar(&o.machine, "machine", "server", "platform for in-process mode")
	fs.IntVar(&o.threads, "threads", 4, "per-request thread count")
	fs.IntVar(&o.msaWorkers, "msa-workers", 0, "in-process MSA pool size; 0 = one per core")
	fs.IntVar(&o.gpuWorkers, "gpu-workers", 0, "in-process GPU pool size; 0 = one per modeled device")
	fs.IntVar(&o.queue, "queue", 64, "in-process admission queue depth")
	fs.IntVar(&o.cacheMB, "cache-mb", 512, "in-process cache capacity in MiB; 0 disables")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "in-process only: attach the persistent chain-cache tier rooted at this directory")
	fs.BoolVar(&o.warm, "warm", false, "in-process only: precompute the trace into the disk tier, then measure with a cold memory tier (needs -cache-dir)")
	fs.BoolVar(&o.compareCache, "compare-cache", false, "in-process only: rerun the trace cache-disabled and request-keyed and report the speedups")
	fs.BoolVar(&o.chaos, "chaos", false, "in-process only: run the seeded fault storm and assert the fault-tolerance invariants instead of measuring throughput")
	fs.BoolVar(&o.chaosDisk, "chaos-disk", false, "in-process only: run the disk-fault chaos gate against the persistent tier and assert the crash-safety invariants")
	fs.BoolVar(&o.batch, "batch", false, "in-process only: enable cross-request GPU batching with the shape-bucketed compile cache")
	fs.StringVar(&o.batchBuckets, "batch-buckets", "", "comma-separated shape-bucket boundaries for -batch (empty = stock bucket set)")
	fs.IntVar(&o.maxBatch, "max-batch", 0, "cap members per batched dispatch on top of the memory-footprint cap (0 = memory cap only)")
	fs.BoolVar(&o.batchSweep, "batch-sweep", false, "in-process only: sweep batch size, offered load and bucket count, report the compile-dominated -> compute-dominated crossover, and merge a batch_crossover section into -json")
	fs.BoolVar(&o.qosMode, "qos", false, "in-process only: drive the trace open-loop through the tenant-aware scheduler (per-tenant admission, WFQ, brownout) and report the fairness block")
	fs.BoolVar(&o.fairness, "fairness", false, "in-process only: run the adversarial screening-storm fairness gate and exit non-zero if QoS fails to protect the victim tenant")
	fs.StringVar(&o.tenants, "tenants", "", "-qos tenant spec: 'name:w=8,rps=0.5,n=20,shape=bursty,mix=2PV7:3|7RCE:2;...' (keys w/r/b set the quota, rps/n/shape/mix the offered trace)")
	fs.StringVar(&o.traceShape, "trace-shape", "", "-qos default arrival shape for tenants without shape= (uniform, bursty, diurnal, heavytail)")
	fs.StringVar(&o.jsonPath, "json", "", "write the report JSON to this path")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	// explicit records which flags the caller actually set, so dependent
	// combinations can be told apart from defaults (-ppi silently overriding
	// the default -mix is fine; overriding an explicit -mix is a footgun).
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	o.mixSet = explicit["mix"]
	if o.n <= 0 || o.concurrency <= 0 {
		return o, fmt.Errorf("-n and -concurrency must be positive")
	}
	if o.addr != "" && o.compareCache {
		return o, fmt.Errorf("-compare-cache needs the in-process mode (drop -addr)")
	}
	if o.addr != "" && o.chaos {
		return o, fmt.Errorf("-chaos needs the in-process mode (drop -addr)")
	}
	if o.addr != "" && (o.chaosDisk || o.cacheDir != "" || o.warm) {
		return o, fmt.Errorf("-chaos-disk, -cache-dir and -warm need the in-process mode (drop -addr)")
	}
	if o.chaos && o.chaosDisk {
		return o, fmt.Errorf("-chaos and -chaos-disk are mutually exclusive (run the gates separately)")
	}
	if o.chaos && (o.ppi > 0 || o.cacheDir != "" || o.warm || o.compareCache) {
		return o, fmt.Errorf("-chaos drives its own trace through a cache-less scheduler and ignores -ppi, -cache-dir, -warm and -compare-cache; drop them")
	}
	if o.chaosDisk && (o.warm || o.compareCache) {
		return o, fmt.Errorf("-chaos-disk runs its own warm/cold passes and ignores -warm and -compare-cache; drop them")
	}
	if o.warm && o.cacheDir == "" && !o.chaosDisk {
		return o, fmt.Errorf("-warm needs -cache-dir (the tier it precomputes into)")
	}
	if o.cacheMB <= 0 && (o.compareCache || o.cacheDir != "") && !o.chaosDisk {
		return o, fmt.Errorf("-compare-cache and -cache-dir need the memory tier (-cache-mb > 0)")
	}
	if o.batchSweep && o.addr != "" {
		return o, fmt.Errorf("-batch-sweep needs the in-process mode (drop -addr)")
	}
	if o.batchSweep && (o.chaos || o.chaosDisk || o.ppi > 0 || o.warm || o.compareCache || o.cacheDir != "" || o.batch) {
		return o, fmt.Errorf("-batch-sweep drives its own batching passes; drop -chaos, -chaos-disk, -ppi, -warm, -compare-cache, -cache-dir and -batch")
	}
	if o.addr != "" && (o.batch || o.batchBuckets != "" || o.maxBatch > 0) {
		return o, fmt.Errorf("-batch, -batch-buckets and -max-batch need the in-process mode (drop -addr)")
	}
	if !o.batch && !o.batchSweep && (o.batchBuckets != "" || o.maxBatch > 0) {
		return o, fmt.Errorf("-batch-buckets and -max-batch need -batch")
	}
	if _, err := batch.ParseBuckets(o.batchBuckets); err != nil {
		return o, err
	}
	if o.ppi < 0 || o.ppi > inputs.PPIPoolSize {
		return o, fmt.Errorf("-ppi must be in [0,%d]", inputs.PPIPoolSize)
	}
	if o.ppi > 0 && (explicit["mix"] || explicit["n"]) {
		return o, fmt.Errorf("-ppi derives the all-vs-all trace itself and overrides -mix and -n; drop them")
	}
	if o.qosMode && o.fairness {
		return o, fmt.Errorf("-qos and -fairness are mutually exclusive (the gate runs its own QoS passes)")
	}
	if (o.qosMode || o.fairness) && o.addr != "" {
		return o, fmt.Errorf("-qos and -fairness need the in-process mode (drop -addr)")
	}
	if (o.qosMode || o.fairness) && (o.chaos || o.chaosDisk || o.batchSweep || o.ppi > 0 || o.warm || o.compareCache || o.cacheDir != "") {
		return o, fmt.Errorf("-qos and -fairness drive their own open-loop tenant traces through a cache-less scheduler; drop -chaos, -chaos-disk, -batch-sweep, -ppi, -warm, -compare-cache and -cache-dir")
	}
	if (o.tenants != "" || o.traceShape != "") && !o.qosMode {
		return o, fmt.Errorf("-tenants and -trace-shape need -qos (the fairness gate fixes its own scenario)")
	}
	if o.fairness && (explicit["mix"] || explicit["n"] || o.batch) {
		return o, fmt.Errorf("-fairness fixes its own victim/storm traces and batching passes; drop -mix, -n and -batch")
	}
	if o.qosMode && o.tenants != "" && explicit["n"] {
		return o, fmt.Errorf("-tenants carries per-tenant request counts (n=); a global -n would be ignored, drop it")
	}
	if err := validShape(o.traceShape); err != nil {
		return o, err
	}
	return o, nil
}

// buildPPITrace derives the all-vs-all screening trace: every unordered
// pair over the first n pool proteins, in an order deterministically
// shuffled by the seed so consecutive requests do not trivially share a
// chain.
func buildPPITrace(n int, seed uint64) ([]string, error) {
	pairs, err := inputs.PPIAllPairs(n)
	if err != nil {
		return nil, err
	}
	trace := make([]string, len(pairs))
	for i, in := range pairs {
		trace[i] = in.Name
	}
	src := rng.New(seed).Split(0x9919)
	for i := len(trace) - 1; i > 0; i-- {
		j := src.Split(uint64(i)).Intn(i + 1)
		trace[i], trace[j] = trace[j], trace[i]
	}
	return trace, nil
}

// target abstracts where requests go: the in-process scheduler or a remote
// afserve over HTTP.
type target interface {
	// submit returns the job id, shed=true on admission shedding.
	submit(sample string, threads int) (id string, shed bool, err error)
	// wait blocks until the job is terminal and returns its status.
	wait(id string) (serve.JobStatus, error)
}

type inprocTarget struct{ s *serve.Server }

func (t inprocTarget) submit(sample string, threads int) (string, bool, error) {
	id, err := t.s.Submit(serve.Request{Sample: sample, Threads: threads})
	if resilience.IsOverloaded(err) {
		return "", true, nil
	}
	return id, false, err
}

func (t inprocTarget) wait(id string) (serve.JobStatus, error) {
	for {
		st, ok := t.s.Status(id)
		if !ok {
			return st, fmt.Errorf("job %s vanished", id)
		}
		if st.State == "done" || st.State == "failed" {
			return st, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

type httpTarget struct {
	base   string
	client *http.Client
}

func (t httpTarget) submit(sample string, threads int) (string, bool, error) {
	body, _ := json.Marshal(serve.SubmitRequest{Sample: sample, Threads: threads})
	resp, err := t.client.Post(t.base+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		return "", true, nil
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", false, fmt.Errorf("submit %s: HTTP %d", sample, resp.StatusCode)
	}
	var sub serve.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return "", false, err
	}
	return sub.ID, false, nil
}

func (t httpTarget) wait(id string) (serve.JobStatus, error) {
	for {
		resp, err := t.client.Get(t.base + "/v1/jobs/" + id)
		if err != nil {
			return serve.JobStatus{}, err
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return serve.JobStatus{}, err
		}
		if st.State == "done" || st.State == "failed" {
			return st, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// drive runs the trace through the target with closed-loop clients and
// returns the measured stats. Clients pull trace entries in order from a
// shared cursor; each waits for its request to finish before taking the
// next.
func drive(t target, trace []string, concurrency, threads int) serve.LoadStats {
	var (
		mu        sync.Mutex
		next      int
		latencies []float64
		stats     serve.LoadStats
	)
	stats.Requests = len(trace)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(trace) {
					mu.Unlock()
					return
				}
				sample := trace[next]
				next++
				mu.Unlock()

				t0 := time.Now()
				id, shed, err := t.submit(sample, threads)
				if err != nil {
					mu.Lock()
					stats.Failed++
					mu.Unlock()
					continue
				}
				if shed {
					mu.Lock()
					stats.Shed++
					mu.Unlock()
					continue
				}
				st, err := t.wait(id)
				elapsed := time.Since(t0).Seconds() * 1000
				mu.Lock()
				if err != nil || st.State != "done" {
					stats.Failed++
				} else {
					stats.Completed++
					latencies = append(latencies, elapsed)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stats.WallSeconds = time.Since(start).Seconds()
	if stats.WallSeconds > 0 {
		stats.Throughput = float64(stats.Completed) / stats.WallSeconds
	}
	if stats.Requests > 0 {
		stats.ShedRate = float64(stats.Shed) / float64(stats.Requests)
	}
	sort.Float64s(latencies)
	stats.Latency = serve.Summarize(latencies)
	return stats
}

// passConfig tunes one in-process pass beyond the shared flags.
type passConfig struct {
	withCache     bool
	disk          *cachedisk.Store // nil = memory-only
	requestScoped bool             // the request-keyed baseline mode
	spill         bool             // push the surviving memory tier to disk after the run
	coldModel     bool             // stock one-container-per-request deployment
	batch         serve.BatchConfig
}

// runInprocPass builds a scheduler from the flags, drives the trace, and
// fills in the server-side accounting (cache stats, chain-tier breakdown,
// modeled makespans).
func runInprocPass(o options, suite *core.Suite, mach platform.Machine, trace []string, label string, pc passConfig) (serve.LoadStats, error) {
	var c *cache.Cache
	if pc.withCache && o.cacheMB > 0 {
		c = cache.New(int64(o.cacheMB) << 20)
	}
	s := serve.NewWithSuite(suite, serve.Config{
		Machine:           mach,
		Threads:           o.threads,
		MSAWorkers:        o.msaWorkers,
		GPUWorkers:        o.gpuWorkers,
		QueueDepth:        o.queue,
		Cache:             c,
		DiskCache:         pc.disk,
		RequestScopedKeys: pc.requestScoped,
		ColdModel:         pc.coldModel,
		Batch:             pc.batch,
	})
	s.Start()
	stats := drive(inprocTarget{s: s}, trace, o.concurrency, o.threads)
	if pc.spill {
		s.SpillCache()
	}
	s.Stop()
	stats.Label = label
	stats.Cache = c.Stats()
	stats.CacheHitRate = stats.Cache.HitRate()
	m := s.Metrics()
	stats.Routing = &serve.RoutingBreakdown{
		Shed:            m.Get("requests_shed"),
		ShedQueueFull:   m.Get("requests_shed_queue_full"),
		ShedRateLimited: m.Get("requests_shed_rate_limited"),
		ShedBrownout:    m.Get("requests_shed_brownout"),
		Hedges:          m.Get("msa_hedges"),
		HedgeBackupWins: m.Get("msa_hedge_backup_wins"),
		StageRetries:    m.Get("msa_stage_retries"),
		ChainsRestored:  m.Get("msa_chains_restored"),
		PartialMSA:      m.Get("requests_partial_msa"),
	}
	stats.ChainMemHits = m.Get("msa_chain_mem_hits")
	stats.ChainDiskHits = m.Get("msa_chain_disk_hits")
	stats.ChainFresh = m.Get("msa_chain_misses")
	if lookups := stats.ChainMemHits + stats.ChainDiskHits + stats.ChainFresh; lookups > 0 {
		stats.MemHitRate = float64(stats.ChainMemHits) / float64(lookups)
		stats.DiskHitRate = float64(stats.ChainDiskHits) / float64(lookups)
	}
	if pc.disk != nil {
		ds := pc.disk.Stats()
		stats.Disk = &ds
	}
	cfg := s.Config()
	sched := s.ModeledSchedule(cfg.MSAWorkers, cfg.GPUWorkers)
	stats.ModeledMakespan = sched.Makespan
	stats.ModeledSerial = s.SerialMakespan()
	if sched.Makespan > 0 {
		stats.ModeledSpeedup = stats.ModeledSerial / sched.Makespan
	}
	stats.Batch = s.BatchReport()
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
	if r := st.Routing; r != nil && r.Shed+r.Hedges+r.StageRetries+r.ChainsRestored+r.PartialMSA > 0 {
		fmt.Fprintf(w, "%-10s routing: %d shed, %d hedges (%d backup wins), %d stage retries, %d chains restored, %d partial-msa\n",
			"", r.Shed, r.Hedges, r.HedgeBackupWins, r.StageRetries, r.ChainsRestored, r.PartialMSA)
	}
}

func run(args []string, out *os.File) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.chaos {
		return runChaos(o, out)
	}
	if o.chaosDisk {
		return runChaosDisk(o, out)
	}
	if o.batchSweep {
		return runBatchSweep(o, out)
	}
	if o.fairness {
		return runFairness(o, out)
	}
	if o.qosMode {
		return runQoS(o, out)
	}
	var trace []string
	mixLabel := o.mix
	if o.ppi > 0 {
		trace, err = buildPPITrace(o.ppi, o.seed)
		if err != nil {
			return err
		}
		mixLabel = fmt.Sprintf("ppi all-vs-all over %d pool proteins", o.ppi)
	} else {
		samples, weights, err := inputs.ParseMix(o.mix)
		if err != nil {
			return err
		}
		trace = inputs.WeightedTrace(samples, weights, o.n, o.seed)
	}

	report := serve.LoadReport{
		Mix:         mixLabel,
		Requests:    len(trace),
		Concurrency: o.concurrency,
		Threads:     o.threads,
		MSAWorkers:  o.msaWorkers,
		GPUWorkers:  o.gpuWorkers,
		QueueDepth:  o.queue,
		CacheMB:     o.cacheMB,
		Seed:        o.seed,
		CacheDir:    o.cacheDir,
	}

	if o.addr != "" {
		t := httpTarget{base: strings.TrimRight(o.addr, "/"), client: &http.Client{Timeout: 5 * time.Minute}}
		stats := drive(t, trace, o.concurrency, o.threads)
		stats.Label = "remote"
		printStats(out, stats)
		report.WithCache = &stats
	} else {
		mach, err := platform.ByName(o.machine)
		if err != nil {
			return err
		}
		suite, err := core.NewSuite()
		if err != nil {
			return err
		}
		var disk *cachedisk.Store
		if o.cacheDir != "" {
			disk, err = cachedisk.Open(cachedisk.Config{Dir: o.cacheDir})
			if err != nil {
				return err
			}
			defer disk.Close()
		}
		var bcfg serve.BatchConfig
		if o.batch {
			buckets, err := batch.ParseBuckets(o.batchBuckets)
			if err != nil {
				return err
			}
			bcfg = serve.BatchConfig{Enabled: true, Buckets: buckets, MaxBatch: o.maxBatch}
		}
		if o.warm {
			// The precompute pass fills the disk tier through a throwaway
			// memory tier, so the measured pass below starts with a cold
			// memory tier but a warm disk.
			warm, err := runInprocPass(o, suite, mach, trace, "warm", passConfig{withCache: true, disk: disk, spill: true, batch: bcfg})
			if err != nil {
				return err
			}
			printStats(out, warm)
			report.Warm = &warm
		}
		withCache, err := runInprocPass(o, suite, mach, trace, "with-cache", passConfig{withCache: true, disk: disk, batch: bcfg})
		if err != nil {
			return err
		}
		printStats(out, withCache)
		report.WithCache = &withCache
		if o.compareCache {
			noCache, err := runInprocPass(o, suite, mach, trace, "no-cache", passConfig{batch: bcfg})
			if err != nil {
				return err
			}
			printStats(out, noCache)
			report.NoCache = &noCache
			if noCache.Throughput > 0 {
				report.ThroughputSpeedup = withCache.Throughput / noCache.Throughput
				fmt.Fprintf(out, "cache throughput speedup: %.2fx (hit rate %.1f%%)\n",
					report.ThroughputSpeedup, 100*withCache.CacheHitRate)
			}
			// The request-keyed memory-only baseline: what the serving tier
			// looked like before chain-level keys. Its modeled makespan over
			// the chain-keyed pass's is the deployment-scale win of sharing
			// chains across complexes.
			baseline, err := runInprocPass(o, suite, mach, trace, "req-keyed", passConfig{withCache: true, requestScoped: true, batch: bcfg})
			if err != nil {
				return err
			}
			printStats(out, baseline)
			report.Baseline = &baseline
			if withCache.ModeledMakespan > 0 {
				report.MakespanImprovement = baseline.ModeledMakespan / withCache.ModeledMakespan
				fmt.Fprintf(out, "chain-keyed modeled makespan improvement over request-keyed: %.2fx\n",
					report.MakespanImprovement)
			}
		}
	}

	if o.jsonPath != "" {
		f, err := os.Create(o.jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := report.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", o.jsonPath)
	}
	return nil
}
