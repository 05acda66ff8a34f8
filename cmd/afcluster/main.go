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
	"time"

	"afsysbench/internal/cluster"
	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
	"afsysbench/internal/scenario"
	"afsysbench/internal/serve"
)

type options struct {
	// Flags carries the four pool flags, which configure every replica.
	serve.Flags
	shards        int
	replicas      int
	sweepShards   string
	sweepReplicas string
	n             int
	mix           string
	seed          uint64
	concurrency   int
	jsonPath      string
	chaos         bool
}

func parseFlags(args []string) (options, error) {
	o := options{}
	fs := flag.NewFlagSet("afcluster", flag.ContinueOnError)
	o.RegisterPools(fs, 2, 2, 1, 0)
	fs.Lookup("queue").Usage = "admission queue depth per replica (0 = fit the trace)"
	fs.IntVar(&o.shards, "shards", 8, "shard node count N for the live cluster pass")
	fs.IntVar(&o.replicas, "replicas", 3, "serve replica count R")
	fs.StringVar(&o.sweepShards, "sweep-shards", "1,2,4,8,16", "comma-separated shard counts for the scaling curve")
	fs.StringVar(&o.sweepReplicas, "sweep-replicas", "1,2,4", "comma-separated replica counts for the scaling curve")
	fs.IntVar(&o.n, "n", 24, "request count")
	fs.StringVar(&o.mix, "mix", "2PV7:3,1YY9:2,6QNR:1", "request mix name:weight,...")
	fs.Uint64Var(&o.seed, "seed", 7, "trace seed")
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
	if o.chaos && (o.shards < 3 || o.replicas < 2) {
		return o, fmt.Errorf("-chaos needs -shards ≥ 3 (two nodes die) and -replicas ≥ 2 (one replica dies)")
	}
	if o.Queue <= 0 {
		o.Queue = o.n + 1
	}
	if o.concurrency <= 0 {
		o.concurrency = 2 * o.replicas * o.MSAWorkers
	}
	// With the whole trace in flight from t = 0, the victim replica's share
	// can be done before the half-way kill trigger fires, and the kill hits
	// an idle server.
	if o.chaos && o.n < 2*o.concurrency {
		return o, fmt.Errorf("-chaos needs -n ≥ 2×concurrency (got %d < %d): requests must still be arriving when the replica dies", o.n, 2*o.concurrency)
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

// clusterRig is what both modes start from: the trace, the single-node
// reference it must reproduce, and one assembled scale-out stack — N-shard
// scatter cluster, R started replicas scanning through it, and the router
// in front.
type clusterRig struct {
	suite   *core.Suite
	trace   []string
	digests map[string]string
	points  []cluster.RequestPoint

	cl       *cluster.Cluster
	replicas []*serve.Server
	router   *cluster.Router
}

// buildRig synthesizes the trace, runs the reference pass and starts R
// replicas wired from the pool flags over one shared N-shard cluster.
func buildRig(o options, tag string) (*clusterRig, error) {
	cfg, err := o.Config()
	if err != nil {
		return nil, err
	}
	r := &clusterRig{}
	if r.trace, err = scenario.Trace(o.mix, 0, o.n, o.seed); err != nil {
		return nil, err
	}
	if r.suite, err = core.NewSuite(); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: reference pass (mix %s)\n", tag, o.mix)
	if r.digests, r.points, err = reference(r.suite, r.trace, o.Threads); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: cluster pass (%d shards × %d replicas, %d requests)\n", tag, o.shards, o.replicas, o.n)
	r.cl = cluster.New(cluster.Config{Shards: o.shards, Fingerprint: r.suite.DBs.Fingerprint()})
	cfg.Scatter = r.cl.Scatter
	r.replicas = make([]*serve.Server, o.replicas)
	for i := range r.replicas {
		r.replicas[i] = serve.NewWithSuite(r.suite, cfg)
		r.replicas[i].Start()
	}
	r.router = cluster.NewRouter(r.replicas, cluster.RouterConfig{})
	return r, nil
}

func (r *clusterRig) stop() {
	for _, srv := range r.replicas {
		srv.Stop()
	}
}

// drive pushes the trace through the router from o.concurrency closed-loop
// workers. onDone (optional) observes each completed ordinal for the chaos
// kill triggers.
func (r *clusterRig) drive(ctx context.Context, o options, onDone func(i int)) ([]cluster.RouteResult, []error) {
	results := make([]cluster.RouteResult, len(r.trace))
	errs := make([]error, len(r.trace))
	scenario.Each(len(r.trace), o.concurrency, func(i int) {
		results[i], errs[i] = r.router.Do(ctx, serve.Request{Sample: r.trace[i], Threads: o.Threads})
		if onDone != nil {
			onDone(i)
		}
	})
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
// router's failover counters into the same one-stop block afload embeds in
// its per-pass stats, with one per-shard row per node.
func routingBreakdown(cl cluster.Stats, rt cluster.RouterStats) *serve.RoutingBreakdown {
	rb := &serve.RoutingBreakdown{
		ShedReroutes:     rt.ShedReroutes,
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

// run is the scaling sweep: the trace through the live cluster, every
// result checked against the single-node reference, and the modeled
// shards × replicas curve with its 0.8 efficiency gate at 16 shards.
func run(o options) (*scalingSection, scenario.Verdict, error) {
	var verdict scenario.Verdict
	sweepN, err := parseCounts(o.sweepShards)
	if err != nil {
		return nil, verdict, fmt.Errorf("-sweep-shards: %w", err)
	}
	sweepR, err := parseCounts(o.sweepReplicas)
	if err != nil {
		return nil, verdict, fmt.Errorf("-sweep-replicas: %w", err)
	}
	rig, err := buildRig(o, "afcluster")
	if err != nil {
		return nil, verdict, err
	}
	trace, suite, digests := rig.trace, rig.suite, rig.digests
	defer rig.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	results, errs := rig.drive(ctx, o, nil)

	for i, res := range results {
		switch {
		case errs[i] != nil:
			verdict.Failf("request %d (%s): %v", i, trace[i], errs[i])
		case res.Result == nil:
			verdict.Failf("request %d (%s): no result", i, trace[i])
		case res.Result.Digest() != digests[trace[i]]:
			verdict.Failf("request %d (%s): digest mismatch\n  got  %s\n  want %s", i, trace[i], res.Result.Digest(), digests[trace[i]])
		}
	}
	match := len(verdict.Violations) == 0

	clStats := rig.cl.Stats()
	np := cluster.NetProfileFromStats(clStats, o.n)
	records := 0
	if len(suite.DBs.Protein) > 0 {
		records = suite.DBs.Protein[0].NumSeqs()
	}
	curve := cluster.BuildScalingCurve(rig.points, sweepN, sweepR, records, suite.DBs.Fingerprint(), np, cluster.DefaultNet(), o.MSAWorkers, o.GPUWorkers)
	for _, n := range sweepN {
		if n >= 16 {
			if eff := curve.ShardEfficiencyAt(n); eff < 0.8 {
				verdict.Failf("shard efficiency at %d shards = %.3f, below the 0.8 gate", n, eff)
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
	return section, verdict, nil
}

// runScaling runs the sweep and emits its section: merged into -json, or
// printed.
func runScaling(o options) error {
	section, verdict, err := run(o)
	if err != nil {
		return err
	}
	if o.jsonPath != "" {
		if err := serve.MergeSection(o.jsonPath, "cluster_scaling", section); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "afcluster: merged cluster_scaling into %s\n", o.jsonPath)
	} else {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(section) // stdout; nothing to do about a closed pipe
	}
	fmt.Fprintf(os.Stderr, "afcluster: %d requests, digest_match=%v, shard_eff@16=%.3f, shard failovers=%d, router failovers=%d\n",
		o.n, section.DigestMatch, section.Curve.ShardEfficiencyAt(16), section.Cluster.Failovers, section.Router.Failovers)
	return verdict.Finish(os.Stderr, "afcluster", nil, "", fmt.Sprintf("go run ./cmd/afcluster -shards %d -replicas %d -n %d -mix %s -seed %d",
		o.shards, o.replicas, o.n, o.mix, o.seed))
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "afcluster:", err)
		os.Exit(2)
	}
	mode := runScaling
	if o.chaos {
		mode = runChaos
	}
	if err := mode(o); err != nil {
		fmt.Fprintln(os.Stderr, "afcluster:", err)
		os.Exit(1)
	}
}
