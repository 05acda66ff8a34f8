// Command afserve runs the AFSysBench serving subsystem as an HTTP server:
// the phase-split scheduler of internal/serve (separate MSA and inference
// worker pools, bounded admission queue, per-request deadlines) in front
// of the content-addressed MSA cache of internal/cache.
//
// Usage:
//
//	afserve                                  # serve on :8642, defaults
//	afserve -addr :9000 -machine desktop
//	afserve -msa-workers 8 -gpu-workers 1 -queue 128
//	afserve -cache-mb 256                    # bound the MSA cache
//	afserve -cache-mb 0                      # disable the cache
//	afserve -cache-dir /var/cache/af         # persistent chain-cache tier
//	afserve -deadline 30s -cold              # per-request deadline, cold model
//	afserve -msa-attempts 3 -hedge           # checkpointed retries + hedging
//	afserve -batch -max-batch 8              # cross-request GPU batching
//	afserve -qos -tenants 'inter:w=8;storm:w=1,r=400,b=800'
//	                                         # multi-tenant QoS (X-AF-Tenant)
//	afserve -faults transient:uniref_s:1     # inject faults (robustness demos)
//	afserve -breaker-threshold 3 -breaker-cooldown 5s
//
// Endpoints:
//
//	POST /v1/submit     {"sample":"1YY9","threads":4,"timeout_ms":30000}
//	GET  /v1/jobs/{id}  job status (state, cache_hit, stage seconds)
//	GET  /v1/metrics    counters + cache stats + latency percentiles
//	GET  /v1/healthz    liveness: the process answers
//	GET  /v1/readyz     readiness: 503 names open breakers / saturated queue
//
// A full admission queue answers 503 (deterministic load shedding); an
// unknown sample answers 400.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"afsysbench/internal/batch"
	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
	"afsysbench/internal/parallel"
	"afsysbench/internal/platform"
	"afsysbench/internal/qos"
	"afsysbench/internal/resilience"
	"afsysbench/internal/serve"
	"afsysbench/internal/simgpu"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "afserve:", err)
		os.Exit(1)
	}
}

// options holds the parsed flag set.
type options struct {
	addr       string
	machine    string
	threads    int
	msaWorkers int
	gpuWorkers int
	queue      int
	cacheMB    int
	cacheDir   string
	deadline   time.Duration
	cold       bool

	faults           string
	msaAttempts      int
	breakerThreshold int
	breakerCooldown  time.Duration
	hedge            bool

	batch        bool
	batchBuckets string
	maxBatch     int

	qos         bool
	tenants     string
	qosDrain    float64
	qosCapacity float64
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("afserve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8642", "listen address")
	fs.StringVar(&o.machine, "machine", "server", "platform: server, desktop, desktop-upgraded, server-cxl")
	fs.IntVar(&o.threads, "threads", 8, "default per-request thread count")
	fs.IntVar(&o.msaWorkers, "msa-workers", 0, "MSA (CPU) pool size; 0 = one per core")
	fs.IntVar(&o.gpuWorkers, "gpu-workers", 0, "inference (GPU) pool size; 0 = one per modeled device")
	fs.IntVar(&o.queue, "queue", 64, "admission queue depth; a full queue sheds (503)")
	fs.IntVar(&o.cacheMB, "cache-mb", 512, "MSA cache capacity in MiB; 0 disables caching")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "crash-safe persistent chain-cache tier rooted at this directory (needs -cache-mb > 0); survives restarts")
	fs.DurationVar(&o.deadline, "deadline", 0, "default per-request wall deadline (0 = none)")
	fs.BoolVar(&o.cold, "cold", false, "cold model per request (pay GPU init + XLA compile each time)")
	fs.StringVar(&o.faults, "faults", "", "fault spec injected into every request, e.g. transient:uniref_s:1,chainfault:B:1")
	fs.IntVar(&o.msaAttempts, "msa-attempts", 1, "MSA stage attempts per request; >1 enables chain checkpoints, so a retry re-runs only failed chains")
	fs.IntVar(&o.breakerThreshold, "breaker-threshold", 0, "consecutive failures that open a database's circuit breaker (0 = default 5)")
	fs.DurationVar(&o.breakerCooldown, "breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = default 10s)")
	fs.BoolVar(&o.hedge, "hedge", false, "hedge straggling MSA chain searches with a concurrent backup attempt")
	fs.BoolVar(&o.batch, "batch", false, "enable cross-request GPU batching with the shape-bucketed compile cache")
	fs.StringVar(&o.batchBuckets, "batch-buckets", "", "comma-separated shape-bucket boundaries for -batch (empty = stock bucket set)")
	fs.IntVar(&o.maxBatch, "max-batch", 0, "cap members per batched dispatch on top of the memory-footprint cap (0 = memory cap only)")
	fs.BoolVar(&o.qos, "qos", false, "tenant-aware admission: per-tenant token buckets, weighted-fair MSA queueing and the brownout ladder (tenant from the X-AF-Tenant header)")
	fs.StringVar(&o.tenants, "tenants", "", "per-tenant quotas for -qos, e.g. 'inter:w=8;storm:w=1,r=400,b=800' (w= weight, r= chain-tokens/s, b= burst)")
	fs.Float64Var(&o.qosDrain, "qos-drain", 0, "-qos modeled drain rate in chain-tokens per second (0 = stock)")
	fs.Float64Var(&o.qosCapacity, "qos-capacity", 0, "-qos modeled backlog capacity in chain-tokens (0 = stock)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if !o.batch && (o.batchBuckets != "" || o.maxBatch > 0) {
		return o, fmt.Errorf("-batch-buckets and -max-batch need -batch")
	}
	if !o.qos && (o.tenants != "" || o.qosDrain > 0 || o.qosCapacity > 0) {
		return o, fmt.Errorf("-tenants, -qos-drain and -qos-capacity need -qos")
	}
	if o.tenants != "" {
		if _, err := qos.ParseTenantSpec(o.tenants); err != nil {
			return o, err
		}
	}
	if _, err := batch.ParseBuckets(o.batchBuckets); err != nil {
		return o, err
	}
	return o, nil
}

// buildServer turns the flags into a configured scheduler. Split from run
// so tests can build without binding a socket.
func buildServer(o options) (*serve.Server, error) {
	mach, err := platform.ByName(o.machine)
	if err != nil {
		return nil, err
	}
	var c *cache.Cache
	if o.cacheMB > 0 {
		c = cache.New(int64(o.cacheMB) << 20)
	}
	var disk *cachedisk.Store
	if o.cacheDir != "" {
		if c == nil {
			return nil, fmt.Errorf("-cache-dir needs the memory tier (-cache-mb > 0)")
		}
		disk, err = cachedisk.Open(cachedisk.Config{Dir: o.cacheDir})
		if err != nil {
			return nil, err
		}
	}
	var faults resilience.Faults
	if o.faults != "" {
		faults, err = resilience.ParseFaults(o.faults)
		if err != nil {
			return nil, err
		}
	}
	buckets, err := batch.ParseBuckets(o.batchBuckets)
	if err != nil {
		return nil, err
	}
	var ctrl *qos.Controller
	if o.qos {
		var tenants map[string]qos.TenantConfig
		if o.tenants != "" {
			tenants, err = qos.ParseTenantSpec(o.tenants)
			if err != nil {
				return nil, err
			}
		}
		ctrl = qos.NewController(qos.Config{
			Tenants:           tenants,
			DrainTokensPerSec: o.qosDrain,
			CapacityTokens:    o.qosCapacity,
		})
	}
	return serve.New(serve.Config{
		Machine:          mach,
		Threads:          o.threads,
		MSAWorkers:       o.msaWorkers,
		GPUWorkers:       o.gpuWorkers,
		QueueDepth:       o.queue,
		Cache:            c,
		DiskCache:        disk,
		DefaultTimeout:   o.deadline,
		ColdModel:        o.cold,
		Faults:           faults,
		MSAAttempts:      o.msaAttempts,
		BreakerThreshold: o.breakerThreshold,
		BreakerCooldown:  o.breakerCooldown,
		Hedge:            resilience.HedgeConfig{Enabled: o.hedge},
		Batch:            serve.BatchConfig{Enabled: o.batch, Buckets: buckets, MaxBatch: o.maxBatch},
		QoS:              ctrl,
	})
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	s, err := buildServer(o)
	if err != nil {
		return err
	}
	s.Start()
	defer s.Stop()
	cfg := s.Config()
	cacheDesc := "disabled"
	if cfg.Cache != nil {
		cacheDesc = fmt.Sprintf("%d MiB", o.cacheMB)
		if cfg.DiskCache != nil {
			cacheDesc += fmt.Sprintf(" + disk tier %s (%d entries)", cfg.DiskCache.Dir(), cfg.DiskCache.Len())
		}
	}
	fmt.Printf("afserve: %s on %s | %d msa workers (cores %d), %d gpu workers (devices %d), queue %d, cache %s\n",
		cfg.Machine.Name, o.addr, cfg.MSAWorkers, parallel.DefaultWorkers(),
		cfg.GPUWorkers, simgpu.Devices(cfg.Machine), cfg.QueueDepth, cacheDesc)
	return http.ListenAndServe(o.addr, serve.NewHandler(s))
}
