package main

import (
	"context"
	"sync"
	"time"

	"afsysbench/internal/cluster"
	"afsysbench/internal/core"
	"afsysbench/internal/hmmer"
	"afsysbench/internal/metering"
	"afsysbench/internal/msa"
	"afsysbench/internal/serve"
	"afsysbench/internal/stats"
)

const (
	shardCount   = 8
	replicaCount = 2
)

// shardedCold sends the cold_msa mix in-process through cluster.Router
// over two one-worker replicas that scatter every database scan to one
// shared 8-shard cluster.
type shardedCold struct {
	suite    *core.Suite
	refs     map[string]reference
	cl       *cluster.Cluster
	replicas []*serve.Server
	router   *cluster.Router

	// Traced run only: scatter wall times, and the first scan requests
	// seen, kept to replay against a direct scan afterwards.
	mu        sync.Mutex
	scatterMs []float64
	seen      []msa.ScatterRequest
}

func (w *shardedCold) setup(r *run) error {
	var err error
	if w.suite, err = core.NewSuite(); err != nil {
		return err
	}
	if w.refs, err = references(w.suite, distinct(coldTrace(r.seed, -1, r.smoke))); err != nil {
		return err
	}
	w.cl = cluster.New(cluster.Config{Shards: shardCount, Fingerprint: w.suite.DBs.Fingerprint()})
	scatter := msa.ScatterFunc(w.cl.Scatter)
	if r.tr != nil {
		scatter = w.timedScatter
	}
	w.replicas = nil
	for i := 0; i < replicaCount; i++ {
		cfg := serve.Config{Machine: serverMachine(), Threads: threads, MSAWorkers: 1, GPUWorkers: gpuWorkers, Scatter: scatter}
		if r.tr != nil {
			cfg.Metrics = metering.NewRegistry()
		}
		srv := serve.NewWithSuite(w.suite, cfg)
		srv.Start()
		w.replicas = append(w.replicas, srv)
	}
	w.router = cluster.NewRouter(w.replicas, cluster.RouterConfig{})
	return nil
}

// timedScatter is the traced run's Config.Scatter: Cluster.Scatter inside
// a timing closure.
func (w *shardedCold) timedScatter(ctx context.Context, req msa.ScatterRequest) (*hmmer.Result, error) {
	t0 := time.Now()
	res, err := w.cl.Scatter(ctx, req)
	d := time.Since(t0)
	w.mu.Lock()
	w.scatterMs = append(w.scatterMs, ms(d))
	if len(w.seen) < 64 {
		w.seen = append(w.seen, req)
	}
	w.mu.Unlock()
	return res, err
}

type routed struct {
	start, end time.Time
	res        cluster.RouteResult
	err        error
}

func (w *shardedCold) run(r *run, i int) []routed {
	trace := coldTrace(r.seed, i, r.smoke)
	ops := make([]routed, len(trace))
	r.window(len(trace), func() int {
		closedLoop(len(trace), func(_, k int) {
			o := routed{start: time.Now()}
			o.res, o.err = w.router.Do(context.Background(), serve.Request{Sample: trace[k]})
			o.end = time.Now()
			ops[k] = o
		})
		n := 0
		for k := range ops {
			if ops[k].err == nil && ops[k].res.Status.State == "done" {
				n++
			}
		}
		return n
	})
	// Every digest is checked against the unsharded reference: the
	// shard-count-independence contract, re-checked per request.
	outs := make([]outcome, len(ops))
	for k, o := range ops {
		outs[k] = outcome{sample: trace[k], err: o.err, status: o.res.Status, result: o.res.Result, latencyMs: ms(o.end.Sub(o.start))}
	}
	r.settleClosedLoop(outs, w.refs)
	return ops
}

func (w *shardedCold) round(r *run, i int) error {
	w.run(r, i)
	return nil
}

func (w *shardedCold) traced(r *run) error {
	w.mu.Lock()
	w.scatterMs, w.seen = nil, nil
	w.mu.Unlock()
	before := w.cl.Stats()
	ops := w.run(r, 0)
	after := w.cl.Stats()
	r.layer["cluster.scans"] = float64(after.Scans - before.Scans)
	r.layer["cluster.dispatches"] = float64(after.Dispatches - before.Dispatches)
	r.layer["cluster.failovers"] = float64(after.Failovers - before.Failovers)
	r.layer["cluster.net_s"] = after.NetSeconds - before.NetSeconds
	r.layer["cluster.scatter_ms_p50"] = stats.Median(w.scatterMs)

	var overhead, wall []float64
	for k := range ops {
		o := &ops[k]
		if o.err != nil {
			continue
		}
		r.tr.add("cluster.router_do", o.start, o.end, -1, k)
		overhead = append(overhead, (ms(o.end.Sub(o.start))-o.res.Status.WallMs)*1e3)
		wall = append(wall, o.res.Status.WallMs)
	}
	r.layer["cluster.router_overhead_us_p50"] = stats.Median(overhead)
	r.layer["serve.wall_ms_p50"] = stats.Median(wall)
	for _, srv := range w.replicas {
		r.registryCounts(srv)
	}

	// Replay the scans seen against a direct scan of the same profile and
	// database, both alone on the machine. The ratio is of process CPU
	// time, not wall: a scatter fans its segments out over both cores, so
	// on wall it would win by parallelism and hide what it costs.
	ctx := context.Background()
	var scatterCPU, directCPU time.Duration
	for _, req := range w.seen {
		req.Workers = make([]*metering.Accumulator, req.Threads)
		for i := range req.Workers {
			req.Workers[i] = &metering.Accumulator{}
		}
		c0 := cpuTime()
		if _, err := w.cl.Scatter(ctx, req); err != nil {
			r.fail("scatter replay: %v", err)
			continue
		}
		c1 := cpuTime()
		_, err := hmmer.ScanRecordsCtx(ctx, req.Profile, req.Query, &hmmer.SliceSource{Seqs: req.DB.Seqs}, req.DB.TotalResidues(), req.Search, metering.Nop{})
		if err != nil {
			r.fail("direct scan replay: %v", err)
			continue
		}
		scatterCPU += c1 - c0
		directCPU += cpuTime() - c1
	}
	if directCPU > 0 {
		r.layer["cluster.scatter_overhead_pct"] = 100 * (float64(scatterCPU)/float64(directCPU) - 1)
	}

	names := distinct(coldTrace(r.seed, -1, r.smoke))
	r.hmmerPass(w.suite, names)
	r.msaPass(w.suite, names, r.corePass(w.suite, names), true)
	r.simPasses(w.suite, names)
	return nil
}

func (w *shardedCold) close() {
	for _, srv := range w.replicas {
		srv.Stop()
	}
	w.replicas = nil
}
