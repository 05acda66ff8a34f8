// afcluster drives the multi-node scale-out tier: a sharded scatter-gather
// MSA scan (internal/cluster) under a health-aware router over replicated
// serve.Servers. It verifies the determinism contract end to end — every
// routed request's result must be bitwise-identical to the single-node
// pipeline — then sweeps shards × replicas into the modeled scaling curve
// and merges it into BENCH_serve.json as the "cluster_scaling" section.
//
//	afcluster -shards 8 -replicas 3 -n 24 -mix 2PV7:3,1YY9:2 -json BENCH_serve.json
//	afcluster -chaos -seed 13 -shards 8 -replicas 3 -n 40
//
// Exit code 1 means a broken invariant: a digest mismatch, a failed
// request, or a scaling curve under the 0.8 efficiency gate at 16 shards.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"afsysbench/internal/cluster"
	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
	"afsysbench/internal/resilience"
	"afsysbench/internal/serve"
)

type options struct {
	shards        int
	replicas      int
	sweepShards   string
	sweepReplicas string
	n             int
	mix           string
	seed          uint64
	threads       int
	msaWorkers    int
	gpuWorkers    int
	queue         int
	concurrency   int
	jsonPath      string
	chaos         bool
}

func parseFlags(args []string) (options, error) {
	o := options{}
	fs := flag.NewFlagSet("afcluster", flag.ContinueOnError)
	fs.IntVar(&o.shards, "shards", 8, "shard node count N for the live cluster pass")
	fs.IntVar(&o.replicas, "replicas", 3, "serve replica count R")
	fs.StringVar(&o.sweepShards, "sweep-shards", "1,2,4,8,16", "comma-separated shard counts for the scaling curve")
	fs.StringVar(&o.sweepReplicas, "sweep-replicas", "1,2,4", "comma-separated replica counts for the scaling curve")
	fs.IntVar(&o.n, "n", 24, "request count")
	fs.StringVar(&o.mix, "mix", "2PV7:3,1YY9:2,6QNR:1", "request mix name:weight,...")
	fs.Uint64Var(&o.seed, "seed", 7, "trace seed")
	fs.IntVar(&o.threads, "threads", 2, "per-request MSA threads")
	fs.IntVar(&o.msaWorkers, "msa-workers", 2, "MSA workers per replica")
	fs.IntVar(&o.gpuWorkers, "gpu-workers", 1, "GPU workers per replica")
	fs.IntVar(&o.queue, "queue", 0, "admission queue depth per replica (0 = fit the trace)")
	fs.IntVar(&o.concurrency, "concurrency", 0, "request driver concurrency (0 = 2×replicas×msa-workers)")
	fs.StringVar(&o.jsonPath, "json", "", "merge the cluster_scaling section into this BENCH_serve.json")
	fs.BoolVar(&o.chaos, "chaos", false, "run the seeded kill-storm gate instead of the scaling sweep")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.shards <= 0 || o.replicas <= 0 {
		return o, fmt.Errorf("-shards and -replicas must be positive")
	}
	if o.n <= 0 {
		return o, fmt.Errorf("-n must be positive")
	}
	return o, nil
}

func parseCounts(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty count list")
	}
	return out, nil
}

// reference runs each distinct trace sample once through the single-node
// pipeline with the exact per-request options the serving tier uses
// (canonical run index, fresh MSA, warm model) and returns the per-sample
// digests plus the scaling-model request points for the full trace.
func reference(suite *core.Suite, trace []string, threads int) (map[string]string, []cluster.RequestPoint, error) {
	digests := make(map[string]string)
	points := make([]cluster.RequestPoint, 0, len(trace))
	bySample := make(map[string]cluster.RequestPoint)
	for _, sample := range trace {
		if _, ok := digests[sample]; ok {
			points = append(points, bySample[sample])
			continue
		}
		in, err := inputs.ByName(sample)
		if err != nil {
			return nil, nil, err
		}
		mach := core.MachineFor(in, platform.Server())
		opts := core.PipelineOptions{Threads: threads, RunIndex: 0, WarmStart: true, FreshMSA: true}
		mp, err := suite.RunMSAPhase(context.Background(), in, mach, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("reference MSA %s: %w", sample, err)
		}
		pb, err := suite.RunInferencePhase(context.Background(), in, mach, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("reference inference %s: %w", sample, err)
		}
		res := core.ComposeResult(in, mach, threads, mp, pb)
		digests[sample] = res.Digest()
		pt := cluster.PointFromResult(res)
		bySample[sample] = pt
		points = append(points, pt)
	}
	return digests, points, nil
}

// clusterRig is one assembled scale-out stack: N-shard scatter cluster,
// R replicas scanning through it, and the router in front.
type clusterRig struct {
	cl       *cluster.Cluster
	replicas []*serve.Server
	router   *cluster.Router
}

func buildRig(suite *core.Suite, o options, hedge resilience.HedgeConfig) *clusterRig {
	queue := o.queue
	if queue <= 0 {
		queue = o.n + 1
	}
	cl := cluster.New(cluster.Config{Shards: o.shards, Fingerprint: suite.DBs.Fingerprint()})
	reps := make([]*serve.Server, o.replicas)
	for i := range reps {
		reps[i] = serve.NewWithSuite(suite, serve.Config{
			Threads:    o.threads,
			MSAWorkers: o.msaWorkers,
			GPUWorkers: o.gpuWorkers,
			QueueDepth: queue,
			Scatter:    cl.Scatter,
		})
		reps[i].Start()
	}
	return &clusterRig{cl: cl, replicas: reps, router: cluster.NewRouter(reps, cluster.RouterConfig{Hedge: hedge})}
}

func (r *clusterRig) stop() {
	for _, srv := range r.replicas {
		srv.Stop()
	}
}

// drive pushes the trace through the router with bounded concurrency,
// preserving submit order per worker cursor. onDone (optional) observes
// each completed ordinal for the chaos kill triggers.
func (r *clusterRig) drive(ctx context.Context, trace []string, threads, workers int, onDone func(i int)) ([]cluster.RouteResult, []error) {
	if workers <= 0 {
		workers = 1
	}
	results := make([]cluster.RouteResult, len(trace))
	errs := make([]error, len(trace))
	var cursor int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := cursor
				cursor++
				mu.Unlock()
				if i >= len(trace) {
					return
				}
				results[i], errs[i] = r.router.Do(ctx, serve.Request{Sample: trace[i], Threads: threads})
				if onDone != nil {
					onDone(i)
				}
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// scalingSection is the BENCH_serve.json "cluster_scaling" payload.
type scalingSection struct {
	Shards      int                     `json:"shards"`
	Replicas    int                     `json:"replicas"`
	Requests    int                     `json:"requests"`
	Mix         string                  `json:"mix"`
	Seed        uint64                  `json:"seed"`
	DigestMatch bool                    `json:"digest_match"`
	Cluster     cluster.Stats           `json:"cluster"`
	Router      cluster.RouterStats     `json:"router"`
	Routing     *serve.RoutingBreakdown `json:"routing"`
	Curve       cluster.ScalingCurve    `json:"curve"`
}

// routingBreakdown folds the scatter layer's per-node counters and the
// router's failover/hedge counters into the same one-stop block afload
// embeds in its per-pass stats, with one per-shard row per node.
func routingBreakdown(cl cluster.Stats, rt cluster.RouterStats) *serve.RoutingBreakdown {
	rb := &serve.RoutingBreakdown{
		ShedReroutes:     rt.ShedReroutes,
		Hedges:           rt.Hedges,
		HedgeBackupWins:  rt.HedgeBackupWins,
		ReplicaFailovers: rt.Failovers,
		ShardFailovers:   cl.Failovers,
	}
	for _, n := range cl.PerNode {
		rb.PerShard = append(rb.PerShard, serve.ShardCounters{
			Shard:      fmt.Sprintf("node-%d", n.Node),
			Dispatches: n.Dispatches,
			Failovers:  n.Failovers,
			Killed:     n.Killed,
		})
	}
	return rb
}

func run(o options) (*scalingSection, []string, error) {
	samples, weights, err := inputs.ParseMix(o.mix)
	if err != nil {
		return nil, nil, err
	}
	sweepN, err := parseCounts(o.sweepShards)
	if err != nil {
		return nil, nil, fmt.Errorf("-sweep-shards: %w", err)
	}
	sweepR, err := parseCounts(o.sweepReplicas)
	if err != nil {
		return nil, nil, fmt.Errorf("-sweep-replicas: %w", err)
	}
	trace := inputs.WeightedTrace(samples, weights, o.n, o.seed)
	suite, err := core.NewSuite()
	if err != nil {
		return nil, nil, err
	}

	fmt.Fprintf(os.Stderr, "afcluster: reference pass (%d distinct samples)\n", len(samples))
	digests, points, err := reference(suite, trace, o.threads)
	if err != nil {
		return nil, nil, err
	}

	fmt.Fprintf(os.Stderr, "afcluster: cluster pass (%d shards × %d replicas, %d requests)\n", o.shards, o.replicas, o.n)
	rig := buildRig(suite, o, resilience.HedgeConfig{})
	defer rig.stop()
	workers := o.concurrency
	if workers <= 0 {
		workers = 2 * o.replicas * o.msaWorkers
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	results, errs := rig.drive(ctx, trace, o.threads, workers, nil)

	var violations []string
	match := true
	for i, res := range results {
		if errs[i] != nil {
			violations = append(violations, fmt.Sprintf("request %d (%s): %v", i, trace[i], errs[i]))
			match = false
			continue
		}
		if res.Result == nil {
			violations = append(violations, fmt.Sprintf("request %d (%s): no result", i, trace[i]))
			match = false
			continue
		}
		if got, want := res.Result.Digest(), digests[trace[i]]; got != want {
			violations = append(violations, fmt.Sprintf("request %d (%s): digest mismatch\n  got  %s\n  want %s", i, trace[i], got, want))
			match = false
		}
	}

	clStats := rig.cl.Stats()
	np := cluster.NetProfileFromStats(clStats, o.n)
	records := 0
	if len(suite.DBs.Protein) > 0 {
		records = suite.DBs.Protein[0].NumSeqs()
	}
	curve := cluster.BuildScalingCurve(points, sweepN, sweepR, records, suite.DBs.Fingerprint(), np, cluster.DefaultNet(), o.msaWorkers, o.gpuWorkers)
	for _, n := range sweepN {
		if n >= 16 {
			if eff := curve.ShardEfficiencyAt(n); eff < 0.8 {
				violations = append(violations, fmt.Sprintf("shard efficiency at %d shards = %.3f, below the 0.8 gate", n, eff))
			}
		}
	}

	rtStats := rig.router.Stats()
	section := &scalingSection{
		Shards:      o.shards,
		Replicas:    o.replicas,
		Requests:    o.n,
		Mix:         o.mix,
		Seed:        o.seed,
		DigestMatch: match,
		Cluster:     clStats,
		Router:      rtStats,
		Routing:     routingBreakdown(clStats, rtStats),
		Curve:       curve,
	}
	return section, violations, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if o.chaos {
		os.Exit(runChaos(o))
	}
	section, violations, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "afcluster: %v\n", err)
		os.Exit(1)
	}
	if o.jsonPath != "" {
		if err := serve.MergeSection(o.jsonPath, "cluster_scaling", section); err != nil {
			fmt.Fprintf(os.Stderr, "afcluster: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "afcluster: merged cluster_scaling into %s\n", o.jsonPath)
	} else {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(section)
	}
	fmt.Fprintf(os.Stderr, "afcluster: %d requests, digest_match=%v, shard_eff@16=%.3f, shard failovers=%d, router failovers=%d\n",
		o.n, section.DigestMatch, section.Curve.ShardEfficiencyAt(16), section.Cluster.Failovers, section.Router.Failovers)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "VIOLATION: %s\n", v)
		}
		fmt.Fprintf(os.Stderr, "reproduce: go run ./cmd/afcluster -shards %d -replicas %d -n %d -mix %s -seed %d\n",
			o.shards, o.replicas, o.n, o.mix, o.seed)
		os.Exit(1)
	}
}
