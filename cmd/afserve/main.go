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
//	afserve -msa-attempts 3                  # checkpointed stage retries
//	afserve -batch                           # cross-request GPU batching
//	afserve -qos -tenants 'inter:w=8;storm:w=1,r=400,b=800'
//	                                         # multi-tenant QoS (X-AF-Tenant)
//	afserve -faults transient:uniref_s:1     # inject faults (robustness demos)
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
// unknown sample answers 400. SIGINT or SIGTERM stops the listener, lets the
// queued jobs finish and closes the disk tier before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"afsysbench/internal/parallel"
	"afsysbench/internal/qos"
	"afsysbench/internal/resilience"
	"afsysbench/internal/serve"
	"afsysbench/internal/simgpu"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "afserve:", err)
		os.Exit(1)
	}
}

// options holds the parsed flag set.
type options struct {
	// Flags are the flags shared with afload: platform, pools, cache tiers,
	// batching.
	serve.Flags
	addr     string
	deadline time.Duration
	cold     bool

	faults      string
	msaAttempts int

	qos         bool
	tenants     string
	qosDrain    float64
	qosCapacity float64
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("afserve", flag.ContinueOnError)
	o.Register(fs, 8)
	fs.StringVar(&o.addr, "addr", ":8642", "listen address")
	fs.DurationVar(&o.deadline, "deadline", 0, "default per-request wall deadline (0 = none)")
	fs.BoolVar(&o.cold, "cold", false, "cold model per request (pay GPU init + XLA compile each time)")
	fs.StringVar(&o.faults, "faults", "", "fault spec injected into every request, e.g. transient:uniref_s:1,chainfault:B:1")
	fs.IntVar(&o.msaAttempts, "msa-attempts", 1, "MSA stage attempts per request; >1 enables chain checkpoints, so a retry re-runs only failed chains")
	fs.BoolVar(&o.qos, "qos", false, "tenant-aware admission: per-tenant token buckets, weighted-fair MSA queueing and the brownout ladder (tenant from the X-AF-Tenant header)")
	fs.StringVar(&o.tenants, "tenants", "", "per-tenant quotas for -qos, e.g. 'inter:w=8;storm:w=1,r=400,b=800' (w= weight, r= chain-tokens/s, b= burst)")
	fs.Float64Var(&o.qosDrain, "qos-drain", 0, "-qos modeled drain rate in chain-tokens per second (0 = stock)")
	fs.Float64Var(&o.qosCapacity, "qos-capacity", 0, "-qos modeled backlog capacity in chain-tokens (0 = stock)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if err := o.Validate(); err != nil {
		return o, err
	}
	if !o.qos && (o.tenants != "" || o.qosDrain > 0 || o.qosCapacity > 0) {
		return o, fmt.Errorf("-tenants, -qos-drain and -qos-capacity need -qos")
	}
	if o.tenants != "" {
		if _, err := qos.ParseTenantSpec(o.tenants); err != nil {
			return o, err
		}
	}
	return o, nil
}

// buildServer turns the flags into a configured scheduler. Split from run
// so tests can build without binding a socket.
func buildServer(o options) (*serve.Server, error) {
	cfg, err := o.Config()
	if err != nil {
		return nil, err
	}
	cfg.DefaultTimeout = o.deadline
	cfg.ColdModel = o.cold
	if o.faults != "" {
		if cfg.Faults, err = resilience.ParseFaults(o.faults); err != nil {
			return nil, err
		}
	}
	cfg.MSAAttempts = o.msaAttempts
	if o.qos {
		var tenants map[string]qos.TenantConfig
		if o.tenants != "" {
			if tenants, err = qos.ParseTenantSpec(o.tenants); err != nil {
				return nil, err
			}
		}
		cfg.QoS = qos.NewController(qos.Config{
			Tenants:           tenants,
			DrainTokensPerSec: o.qosDrain,
			CapacityTokens:    o.qosCapacity,
		})
	}
	return serve.New(cfg)
}

func run(ctx context.Context, args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	s, err := buildServer(o)
	if err != nil {
		ln.Close()
		return err
	}
	cfg := s.Config()
	cacheDesc := "disabled"
	if cfg.Cache != nil {
		cacheDesc = fmt.Sprintf("%d MiB", o.CacheMB)
		if cfg.DiskCache != nil {
			cacheDesc += fmt.Sprintf(" + disk tier %s (%d entries)", cfg.DiskCache.Dir(), cfg.DiskCache.Len())
		}
	}
	fmt.Printf("afserve: %s on %s | %d msa workers (cores %d), %d gpu workers (devices %d), queue %d, cache %s\n",
		cfg.Machine.Name, ln.Addr(), cfg.MSAWorkers, parallel.DefaultWorkers(),
		cfg.GPUWorkers, simgpu.Devices(cfg.Machine), cfg.QueueDepth, cacheDesc)
	return serveUntil(ctx, s, ln)
}

// shutdownGrace bounds how long in-flight HTTP exchanges may take to finish
// once the listener is closed. No handler blocks on a job, so they are short.
const shutdownGrace = 5 * time.Second

// serveUntil starts s and serves its API on ln until ctx is cancelled (main
// cancels it on SIGINT/SIGTERM) or the listener fails, then shuts down in
// order: stop accepting and finish the in-flight exchanges, drain the
// scheduler — queued jobs still execute — and close the disk tier.
func serveUntil(ctx context.Context, s *serve.Server, ln net.Listener) error {
	s.Start()
	srv := &http.Server{Handler: serve.NewHandler(s), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	var err error
	select {
	case err = <-served:
	case <-ctx.Done():
		grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		err = srv.Shutdown(grace)
		cancel()
		<-served // Serve returns as soon as Shutdown closes the listener
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	s.Stop()
	if cerr := s.Config().DiskCache.Close(); err == nil {
		err = cerr
	}
	return err
}
