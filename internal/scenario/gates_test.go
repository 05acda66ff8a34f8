package scenario

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"afsysbench/internal/batch"
	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
	"afsysbench/internal/cluster"
	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
	"afsysbench/internal/qos"
	"afsysbench/internal/resilience"
	"afsysbench/internal/rng"
	"afsysbench/internal/serve"
	"afsysbench/internal/simgpu"
)

// gate is one serving gate: the seed its traces and fault plans derive
// from, the serve.Config its servers are wired from, and run, its scenario
// and assertions. A row has one size, the one its invariants were sized
// for. Its config is what afserve's and afload's shared flags build at the
// row's pool sizes (server machine, queue 64), except the two cluster rows,
// whose replicas have no machine and a queue that fits their whole trace.
// No row config carries a cache tier: a row that keeps the stock 512 MiB
// memory tier builds a fresh one per server.
type gate struct {
	name string
	seed uint64
	cfg  serve.Config
	run  func(t *testing.T, g gate)
}

var gates = []gate{
	{"chaos", 7, serve.Config{Machine: platform.Server(), Threads: 2, MSAWorkers: 4, GPUWorkers: 2, QueueDepth: 64}, gateChaos},
	{"chaos-disk", 11, serve.Config{Machine: platform.Server(), Threads: 2, MSAWorkers: 4, GPUWorkers: 2, QueueDepth: 64}, gateChaosDisk},
	{"chaos-cluster", 13, serve.Config{Threads: 2, MSAWorkers: 2, GPUWorkers: 1, QueueDepth: 41}, gateChaosCluster},
	{"cluster-scaling", 7, serve.Config{Threads: 2, MSAWorkers: 2, GPUWorkers: 1, QueueDepth: 25}, gateClusterScaling},
	{"fairness", 7, serve.Config{Machine: platform.Server(), Threads: 2, MSAWorkers: 4, GPUWorkers: 2, QueueDepth: 64}, gateFairness},
	{"batch-sweep", 7, serve.Config{Machine: platform.Server(), Threads: 4, QueueDepth: 64}, gateBatchSweep},
}

// TestGates runs every serving gate, one subtest per row; `make race` runs
// them under the race detector. A failing row names the line that reruns
// it alone.
func TestGates(t *testing.T) {
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("reproduce with: go test -race -run 'TestGates/%s$' ./internal/scenario", g.name)
				}
			})
			g.run(t, g)
		})
	}
}

// awaitGoroutines waits (up to 5 s) for the goroutine count to return to
// baseline once a gate's servers are stopped, and reports a leak if it does
// not.
func awaitGoroutines(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: baseline %d, after drain %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// settledGoroutines returns the goroutine count once it has held still for
// 200 ms. Servers stopped by the package's earlier tests are still winding
// down when the next test starts, and a baseline taken before they are gone
// sits above the real one by as many goroutines as are about to exit.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for quiet := 0; quiet < 20; quiet++ {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, quiet = m, 0
		}
	}
	return n
}

// poolShortfall is "" when the live-worker gauges of s's /v1/metrics read
// its configured pool sizes, and what they read otherwise.
func poolShortfall(s *serve.Server) string {
	g, cfg := s.MetricsSnapshot().Gauges, s.Config()
	msa, gpu := g["msa_workers_live"], g["gpu_workers_live"]
	if msa == int64(cfg.MSAWorkers) && gpu == int64(cfg.GPUWorkers) {
		return ""
	}
	return fmt.Sprintf("msa %d of %d live, gpu %d of %d", msa, cfg.MSAWorkers, gpu, cfg.GPUWorkers)
}

func TestAwaitGoroutines(t *testing.T) {
	// Not runtime.NumGoroutine() as it stands: with the machine loaded, an
	// earlier test's goroutine exiting during the last case below cancelled
	// out the parked one and the leak went unreported.
	baseline := settledGoroutines()
	if err := awaitGoroutines(baseline); err != nil {
		t.Fatalf("no goroutine started, yet: %v", err)
	}

	// A goroutine that exits shortly after is waited for, not reported.
	brief := make(chan struct{})
	go func() { <-brief }()
	close(brief)
	if err := awaitGoroutines(baseline); err != nil {
		t.Fatalf("an exiting goroutine was reported: %v", err)
	}

	// A parked one is a leak.
	if testing.Short() {
		t.Skip("the leak verdict waits out the 5 s grace period")
	}
	park := make(chan struct{})
	defer close(park)
	go func() { <-park }()
	if err := awaitGoroutines(baseline); err == nil || !strings.Contains(err.Error(), "goroutine leak") {
		t.Fatalf("parked goroutine not reported: %v", err)
	}
}

// chaosFaultSpec is the chaos storm's fault mix: every chain search faults
// once (forcing a retry inside each chain's search), uniref_s fails transiently
// with a two-fault budget per job (exercising the in-stage retry ladder),
// and mgnify_s is permanently dark (exhausting retries, degrading results
// and feeding its breaker until it trips).
const chaosFaultSpec = "chainfault:*:1,transient:uniref_s:2,permanent:mgnify_s"

// chaosPanicPoints cycles panic injection across the three worker guard
// points; "msa" and "inference" fire at stage start, "handoff" between the
// MSA success and the GPU queue send — the historical job-loss window.
var chaosPanicPoints = []string{"msa", "handoff", "inference"}

// chaosPanicPlan deterministically picks the ordinals that panic and the
// guard point each fires at. Roughly one request in twelve panics, at least
// two overall, and ordinal 0 always panics at "msa" so even the smallest
// storm proves panic isolation.
func chaosPanicPlan(n int, seed uint64) map[int]string {
	src := rng.New(seed).Split(0xC4A05)
	count := n/12 + 2
	plan := map[int]string{0: "msa"}
	for i := 1; len(plan) < count && i < 64*count; i++ {
		ord := src.Split(uint64(i)).Intn(n)
		if _, dup := plan[ord]; dup {
			continue
		}
		plan[ord] = chaosPanicPoints[len(plan)%len(chaosPanicPoints)]
	}
	return plan
}

// gateChaos drives a seeded 120-request fault storm — worker panics at all
// three guard points, once-per-chain search faults, a dark database —
// through a live cache-less scheduler and asserts: every admitted job
// terminal, every failure of a known class and at least one of class
// "panic", both pools at full strength, the breaker tripped, chain searches
// retried, and no goroutine leak once the server stops.
func gateChaos(t *testing.T, g gate) {
	const n, concurrency = 120, 8
	trace, err := Trace("2PV7:4,1YY9:1", 0, n, g.seed)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := resilience.ParseFaults(chaosFaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	plan := chaosPanicPlan(n, g.seed)

	// Warm the process-wide compute pools so the goroutine baseline below
	// measures only the storm server's goroutines.
	warm := serve.NewWithSuite(sharedSuite, serve.Config{Threads: g.cfg.Threads, MSAWorkers: 2, GPUWorkers: 1})
	warm.Start()
	warmID, err := warm.Submit(serve.Request{Sample: trace[0]})
	if err == nil {
		_, err = InProc{S: warm}.Wait(warmID)
	}
	warm.Stop()
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	cfg := g.cfg
	cfg.Faults = faults
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = 100 * time.Millisecond
	cfg.PanicHook = func(point string, ordinal int) {
		if plan[ordinal] == point {
			panic(fmt.Sprintf("chaos: injected %s panic (ordinal %d)", point, ordinal))
		}
	}
	s := serve.NewWithSuite(sharedSuite, cfg)
	s.Start()
	ClosedLoop(InProc{S: s}, trace, concurrency, cfg.Threads)

	done, partial, failedByClass := 0, 0, map[string]int{}
	statuses := s.Statuses()
	for _, st := range statuses {
		switch st.State {
		case "done":
			done++
			if st.PartialMSA {
				partial++
			}
		case "failed":
			failedByClass[st.ErrorClass]++
		default:
			t.Errorf("job %s stuck in state %q", st.ID, st.State)
		}
	}
	m := s.Metrics()
	panics, trips, retries := m.Get("worker_panics"), m.Get("breaker_to_open"), m.Get("msa_chain_retries")
	if len(statuses) != n {
		t.Errorf("admitted %d of %d requests (a chaos storm must not shed)", len(statuses), n)
	}
	if short := poolShortfall(s); short != "" {
		t.Errorf("worker pool lost goroutines: %s", short)
	}
	if panics < 1 {
		t.Errorf("no worker panic fired (panic plan missed)")
	}
	if failedByClass["panic"] < 1 {
		t.Errorf(`no job failed with class "panic"`)
	}
	for class := range failedByClass {
		switch class {
		case "panic", "timeout", "oom", "overloaded-queue-full",
			"overloaded-rate-limited", "overloaded-brownout", "fault", "error":
		default:
			t.Errorf("unknown error class %q", class)
		}
	}
	if trips < 1 {
		t.Errorf("dark database never tripped its breaker")
	}
	if retries < 1 {
		t.Errorf("no chain search was retried")
	}
	s.Stop()
	if err := awaitGoroutines(baseline); err != nil {
		t.Error(err)
	}
	t.Logf("%d req: %d done (%d partial_msa), failed by class %v | %d/%d planned panics fired | breaker trips %d, chain retries %d",
		n, done, partial, failedByClass, panics, len(plan), trips, retries)
}

// chaosDiskFaultSpec is the disk gate's phase-A storm: a bounded budget of
// every disk fault class, so writes tear, fsyncs fail, renames crash
// mid-commit, payloads flip bits after checksumming, and reads error — each
// a few times, leaving the tier mostly functional but never trustworthy.
const chaosDiskFaultSpec = "diskfault:write:2,diskfault:fsync:1,diskfault:rename:1,diskfault:flip:2,diskfault:read:2"

// chaosDiskPass runs the trace through cfg over the given cache tiers from
// four closed-loop clients and returns the still-running server (the
// caller spills and stops it), the client-side stats and the per-sample
// result digests.
func chaosDiskPass(t *testing.T, cfg serve.Config, trace []string, mem *cache.Cache, disk *cachedisk.Store) (*serve.Server, serve.LoadStats, map[string]string) {
	t.Helper()
	cfg.Cache, cfg.DiskCache = mem, disk
	s := serve.NewWithSuite(sharedSuite, cfg)
	t.Cleanup(s.Stop)
	s.Start()
	load := ClosedLoop(InProc{S: s}, trace, 4, cfg.Threads)
	bySample, _ := digests(t, s)
	return s, load, bySample
}

// compareDigests reports every sample whose digest differs from the
// reference and every reference sample the pass never completed.
func compareDigests(t *testing.T, phase string, ref, got map[string]string) {
	t.Helper()
	for sample, want := range ref {
		d, ok := got[sample]
		if !ok {
			t.Errorf("%s: sample %s never completed", phase, sample)
		} else if d != want {
			t.Errorf("%s: sample %s diverged from reference:\n  want %s\n  got  %s", phase, sample, want, d)
		}
	}
}

// vandalizeStore corrupts the closed store's directory in place: the first
// entry is truncated to half, the second gets a payload bit flip, and an
// orphan temp file (a simulated mid-write crash) is planted. At least three
// entries must exist so one healthy entry survives to prove the disk read
// path.
func vandalizeStore(dir string) error {
	ents, err := filepath.Glob(filepath.Join(dir, "objects", "*.ent"))
	if err != nil {
		return err
	}
	if len(ents) < 3 {
		return fmt.Errorf("only %d entries on disk; the gate needs >= 3 distinct chains", len(ents))
	}
	sort.Strings(ents)
	b, err := os.ReadFile(ents[0])
	if err != nil {
		return err
	}
	if err := os.WriteFile(ents[0], b[:len(b)/2], 0o644); err != nil {
		return err
	}
	b, err = os.ReadFile(ents[1])
	if err != nil {
		return err
	}
	b[len(b)-1] ^= 0x01
	if err := os.WriteFile(ents[1], b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "objects", "crash.ent.tmp"), []byte("torn"), 0o644)
}

// gateChaosDisk drives the persistent chain-cache tier through the whole
// disaster sequence over the 4-protein all-vs-all PPI trace and asserts it
// can never change a served result:
//
//  1. a reference pass with no cache records every request's digest;
//  2. phase A runs over a disk tier under the seeded fault storm, then
//     spills the memory tier;
//  3. a clean reopen refills the tier, so the directory holds a full set of
//     entries however the fault budget landed;
//  4. the directory is vandalized: one entry truncated, one bit-flipped, an
//     orphan temp file planted;
//  5. phase B reopens the store (the restart) over a cold memory tier: every
//     request done, at least one disk hit, exactly the two corrupt entries
//     and the one orphan counted and dropped;
//  6. phase C runs over a store whose every operation fails: zero failed
//     requests, the breaker open into memory-only mode, degraded operations
//     counted.
//
// Every pass's digests must match the reference.
func gateChaosDisk(t *testing.T, g gate) {
	trace, err := PPITrace(4, g.seed)
	if err != nil {
		t.Fatal(err)
	}
	open := func(c cachedisk.Config) *cachedisk.Store {
		store, err := cachedisk.Open(c)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	parse := func(spec string) resilience.Faults {
		f, err := resilience.ParseFaults(spec)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	dir := t.TempDir()

	// Ground truth: no cache anywhere.
	sRef, _, ref := chaosDiskPass(t, g.cfg, trace, nil, nil)
	sRef.Stop()

	// Phase A: the faulty life.
	store := open(cachedisk.Config{Dir: dir, Injector: resilience.NewInjector(parse(chaosDiskFaultSpec), rng.New(g.seed).Split(0xD15C))})
	sA, stA, digA := chaosDiskPass(t, g.cfg, trace, cache.New(0), store)
	compareDigests(t, "phase A (faulty disk)", ref, digA)
	spilled := sA.SpillCache()
	sA.Stop()
	if spilled == 0 {
		t.Errorf("phase A: nothing spilled to disk; later phases prove nothing")
	}

	// Refill: a clean reopen recomputes whatever the storm destroyed and
	// spills again. Its results must match the reference too — the
	// half-damaged tier serves what it can and recomputes the rest.
	store = open(cachedisk.Config{Dir: dir})
	sR, _, digR := chaosDiskPass(t, g.cfg, trace, cache.New(0), store)
	compareDigests(t, "refill (post-storm reopen)", ref, digR)
	sR.SpillCache()
	sR.Stop()

	// Vandalize the directory, then restart.
	if err := vandalizeStore(dir); err != nil {
		t.Fatal(err)
	}
	store = open(cachedisk.Config{Dir: dir})
	sB, stB, digB := chaosDiskPass(t, g.cfg, trace, cache.New(0), store)
	compareDigests(t, "phase B (restart)", ref, digB)
	diskHits := sB.Metrics().Get("msa_chain_disk_hits")
	sB.Stop()
	dsB := store.Stats()
	if stB.Completed != len(trace) {
		t.Errorf("phase B: %d of %d requests done over the vandalized tier", stB.Completed, len(trace))
	}
	if diskHits == 0 {
		t.Errorf("phase B: no chain served from disk after restart")
	}
	if dsB.CorruptDropped != 2 {
		t.Errorf("phase B: %d corrupt entries dropped, want 2 (the truncated one and the bit-flipped one)", dsB.CorruptDropped)
	}
	if dsB.OrphansDropped != 1 {
		t.Errorf("phase B: %d orphans swept, want 1 (the planted crash.ent.tmp)", dsB.OrphansDropped)
	}

	// Phase C: every disk operation fails; the tier must get out of the way.
	store = open(cachedisk.Config{
		Dir:              t.TempDir(),
		Injector:         resilience.NewInjector(parse("diskfault:*:1000000"), rng.New(g.seed).Split(0xDA4C)),
		BreakerThreshold: 3,
	})
	sC, stC, digC := chaosDiskPass(t, g.cfg, trace, cache.New(0), store)
	compareDigests(t, "phase C (dark disk)", ref, digC)
	// The first spill's write failures trip the breaker; the second must be
	// skipped outright while it is open.
	sC.SpillCache()
	sC.SpillCache()
	sC.Stop()
	dsC := store.Stats()
	if stC.Failed > 0 {
		t.Errorf("phase C: %d requests failed under a dark disk (must degrade, never fail)", stC.Failed)
	}
	if !dsC.Degraded {
		t.Errorf("phase C: breaker never opened into memory-only mode")
	}
	if dsC.DegradedOps == 0 {
		t.Errorf("phase C: degraded operations were not counted")
	}
	t.Logf("%d req | faulty life: %d done, %d spilled | restart: %d done, %d disk hits, %d corrupt dropped, %d orphans swept | dark disk: %d done, %d failed, degraded=%v",
		len(trace), stA.Completed, spilled, stB.Completed, diskHits, dsB.CorruptDropped, dsB.OrphansDropped, stC.Completed, stC.Failed, dsC.Degraded)
}

// The cluster rows' stack: a scatter cluster of rigShards shard nodes
// behind rigReplicas serving replicas, driven by 2 × replicas × msa-workers
// closed-loop clients. killNodeA/killNodeB are the shard nodes
// chaos-cluster kills mid-storm (rigShards ≥ 3 keeps a surviving owner for
// every shard); victimReplica the replica it kills with requests in flight.
const (
	rigShards     = 8
	rigReplicas   = 3
	killNodeA     = 2
	killNodeB     = 5
	victimReplica = 1
)

// reference runs each distinct trace sample once through the single-node
// pipeline with the exact per-request options the serving tier uses
// (canonical run index, fresh MSA, warm model) and returns the per-sample
// digests plus the scaling-model request points for the full trace.
func reference(t *testing.T, trace []string, threads int) (map[string]string, []cluster.RequestPoint) {
	t.Helper()
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
			t.Fatal(err)
		}
		mach := core.MachineFor(in, platform.Server())
		opts := core.PipelineOptions{Threads: threads, RunIndex: 0, WarmStart: true, FreshMSA: true}
		mp, err := sharedSuite.RunMSAPhase(context.Background(), in, mach, opts)
		if err != nil {
			t.Fatalf("reference MSA %s: %v", sample, err)
		}
		pb, err := sharedSuite.RunInferencePhase(context.Background(), in, mach, opts)
		if err != nil {
			t.Fatalf("reference inference %s: %v", sample, err)
		}
		res := core.ComposeResult(in, mach, threads, mp, pb)
		digests[sample] = res.Digest()
		bySample[sample] = cluster.PointFromResult(res)
		points = append(points, bySample[sample])
	}
	return digests, points
}

// clusterRig is what both cluster rows start from: the trace, the
// single-node reference it must reproduce, and one assembled scale-out
// stack — the shard cluster, the started replicas scanning through it, and
// the router in front.
type clusterRig struct {
	g       gate
	trace   []string
	digests map[string]string
	points  []cluster.RequestPoint

	cl       *cluster.Cluster
	replicas []*serve.Server
	router   *cluster.Router
}

// newRig synthesizes the row's trace, runs the reference pass and starts
// the replicas, wired from the row's config, over one shared cluster.
func newRig(t *testing.T, g gate, mix string, n int) *clusterRig {
	t.Helper()
	trace, err := Trace(mix, 0, n, g.seed)
	if err != nil {
		t.Fatal(err)
	}
	r := &clusterRig{g: g, trace: trace}
	r.digests, r.points = reference(t, trace, g.cfg.Threads)
	r.cl = cluster.New(cluster.Config{Shards: rigShards, Fingerprint: sharedSuite.DBs.Fingerprint()})
	cfg := g.cfg
	cfg.Scatter = r.cl.Scatter
	r.replicas = make([]*serve.Server, rigReplicas)
	for i := range r.replicas {
		r.replicas[i] = serve.NewWithSuite(sharedSuite, cfg)
		r.replicas[i].Start()
		t.Cleanup(r.replicas[i].Stop)
	}
	r.router = cluster.NewRouter(r.replicas, cluster.RouterConfig{})
	return r
}

// drive pushes the trace through the router. onDone, when non-nil, observes
// each completed request for the chaos kill triggers.
func (r *clusterRig) drive(ctx context.Context, onDone func()) ([]cluster.RouteResult, []error) {
	results := make([]cluster.RouteResult, len(r.trace))
	errs := make([]error, len(r.trace))
	Each(len(r.trace), 2*rigReplicas*r.g.cfg.MSAWorkers, func(i int) {
		results[i], errs[i] = r.router.Do(ctx, serve.Request{Sample: r.trace[i], Threads: r.g.cfg.Threads})
		if onDone != nil {
			onDone()
		}
	})
	return results, errs
}

// gateClusterScaling drives 24 requests through the live cluster and
// asserts every result is bitwise-identical to the single-node pipeline,
// every request completed, and the modeled shards × replicas curve keeps
// shard efficiency ≥ 0.8 at 16 shards.
func gateClusterScaling(t *testing.T, g gate) {
	const n = 24
	rig := newRig(t, g, "2PV7:3,1YY9:2,6QNR:1", n)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	results, errs := rig.drive(ctx, nil)
	for i, res := range results {
		switch {
		case errs[i] != nil:
			t.Errorf("request %d (%s): %v", i, rig.trace[i], errs[i])
		case res.Result == nil:
			t.Errorf("request %d (%s): no result", i, rig.trace[i])
		case res.Result.Digest() != rig.digests[rig.trace[i]]:
			t.Errorf("request %d (%s): digest mismatch\n  got  %s\n  want %s", i, rig.trace[i], res.Result.Digest(), rig.digests[rig.trace[i]])
		}
	}
	digestMatch := !t.Failed()

	clStats, rtStats := rig.cl.Stats(), rig.router.Stats()
	records := 0
	if len(sharedSuite.DBs.Protein) > 0 {
		records = len(sharedSuite.DBs.Protein[0].Seqs)
	}
	curve := cluster.BuildScalingCurve(rig.points, []int{1, 2, 4, 8, 16}, []int{1, 2, 4}, records, sharedSuite.DBs.Fingerprint(),
		cluster.NetProfileFromStats(clStats, n), cluster.DefaultNet(), g.cfg.MSAWorkers, g.cfg.GPUWorkers)
	if eff := curve.ShardEfficiencyAt(16); eff < 0.8 {
		t.Errorf("shard efficiency at 16 shards = %.3f, below the 0.8 gate", eff)
	}
	if clStats.Scans == 0 || clStats.Dispatches == 0 {
		t.Errorf("cluster stats empty: %+v", clStats)
	}
	if rtStats.Completed != n {
		t.Errorf("router completed %d of %d", rtStats.Completed, n)
	}
	var dispatches int64
	for _, node := range clStats.PerNode {
		dispatches += node.Dispatches
	}
	if dispatches != clStats.Dispatches {
		t.Errorf("per-node dispatches sum to %d, cluster counted %d", dispatches, clStats.Dispatches)
	}
	t.Logf("%d requests, digest_match=%v, shard_eff@16=%.3f, shard failovers=%d, router failovers=%d",
		n, digestMatch, curve.ShardEfficiencyAt(16), clStats.Failovers, rtStats.Failovers)
}

// gateChaosCluster drives 40 requests through the scale-out stack while
// two shard nodes and one serving replica are killed mid-storm, and asserts
// the blast radius stayed contained: no wrong result (every digest matches
// the single-node reference), no lost request, shard and router failovers
// both counted, the killed nodes marked, survivors at full strength and
// the killed replica rejecting, and no goroutine leak.
func gateChaosCluster(t *testing.T, g gate) {
	const n = 40
	baseline := runtime.NumGoroutine()
	rig := newRig(t, g, "2PV7:3,1YY9:2", n)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)

	// Kill triggers: node A after a third of the trace completes, node B
	// plus the victim replica after half. The replica kill waits (briefly)
	// for in-flight work on the victim so the death actually strands
	// requests mid-stage instead of hitting an idle server; stranded records
	// whether it found any (read after killsDone closes).
	stranded := false
	killsDone := make(chan struct{})
	progress := make(chan int, n)
	go func() {
		defer close(killsDone)
		done := 0
		killedA, killedB := false, false
		for range progress {
			done++
			if !killedA && done >= n/3 {
				rig.cl.KillNode(killNodeA)
				killedA = true
			}
			if !killedB && done >= n/2 {
				deadline := time.Now().Add(2 * time.Second)
				for rig.router.Outstanding(victimReplica) == 0 && time.Now().Before(deadline) {
					time.Sleep(200 * time.Microsecond)
				}
				stranded = rig.router.Outstanding(victimReplica) > 0
				rig.cl.KillNode(killNodeB)
				rig.router.Kill(victimReplica)
				killedB = true
			}
		}
	}()
	results, errs := rig.drive(ctx, func() { progress <- 1 })
	close(progress)
	<-killsDone
	cancel()

	wrong, lost := 0, 0
	for i := range results {
		if errs[i] != nil {
			lost++
			if lost <= 3 {
				t.Errorf("request %d (%s) lost: %v", i, rig.trace[i], errs[i])
			}
			continue
		}
		if results[i].Result == nil {
			lost++
			continue
		}
		if results[i].Result.Digest() != rig.digests[rig.trace[i]] {
			wrong++
			if wrong <= 3 {
				t.Errorf("request %d (%s): WRONG RESULT after kill storm", i, rig.trace[i])
			}
		}
	}
	if lost > 3 {
		t.Errorf("… and %d more lost requests", lost-3)
	}

	clStats, rtStats := rig.cl.Stats(), rig.router.Stats()
	if clStats.Failovers == 0 {
		t.Errorf("two shard nodes died but cluster stats count zero failovers")
	}
	switch {
	case !stranded:
		t.Errorf("storm too short to strand a request on replica %d: it was idle for 2 s after half the trace completed", victimReplica)
	case rtStats.Failovers == 0 && rtStats.ShedReroutes == 0:
		t.Errorf("a replica died mid-storm but router stats count zero failovers/reroutes")
	}
	if !clStats.PerNode[killNodeA].Killed || !clStats.PerNode[killNodeB].Killed {
		t.Errorf("killed shard nodes not marked in per-node stats")
	}
	if alive := rig.cl.AliveNodes(); alive != rigShards-2 {
		t.Errorf("alive nodes = %d, want %d", alive, rigShards-2)
	}
	for i, srv := range rig.replicas {
		if i == victimReplica {
			if srv.Metrics().Get("server_killed") != 1 {
				t.Errorf("victim replica not marked killed")
			}
			if _, err := srv.Submit(serve.Request{Sample: rig.trace[0]}); err == nil {
				t.Errorf("killed replica accepted a submission after the storm")
			}
			continue
		}
		if short := poolShortfall(srv); short != "" {
			t.Errorf("surviving replica %d pool degraded: %s", i, short)
		}
	}
	for _, srv := range rig.replicas {
		srv.Stop()
	}
	if err := awaitGoroutines(baseline); err != nil {
		t.Error(err)
	}
	t.Logf("%d requests, %d wrong, %d lost; shard failovers=%d, router failovers=%d, shed reroutes=%d",
		n, wrong, lost, clStats.Failovers, rtStats.Failovers, rtStats.ShedReroutes)
}

// The fairness gate's scenario: the victim is an interactive tenant with a
// small-sample mix and 8x weight; the storm is a bulk screening tenant
// offering 10x the victim's request count at 16x its arrival rate (bursty
// MMPP arrivals, PPI pairs with the poly-Q promoter complex mixed in) under
// a token-bucket quota. Drain/capacity are sized so the storm's unthrottled
// offered load outruns the modeled drain — in FIFO mode the backlog pegs
// and sheds land on whoever arrives next, including the victim; with QoS on
// the storm's bucket and the brownout ladder absorb the excess and the
// victim rides its weight share.
const (
	fairVictim = "inter:w=8,rps=0.25,n=16,shape=uniform,mix=2PV7:3|7RCE:2"
	// The storm's bucket (r=600 > drain) only bites during MMPP bursts
	// (~3000 offered chain-tokens/s), so the gate exercises all three shed
	// classes: rate-limited in bursts, brownout once the mean admitted
	// inflow (~290 chain-tokens/s > 250 drain) walks occupancy up the
	// ladder, queue-full in the FIFO comparator once its unthrottled
	// backlog pegs capacity.
	fairStorm      = "storm:w=1,r=600,b=1200,rps=4,n=160,shape=bursty,mix=ppi-0x1:2|ppi-2x3:2|ppi-4x5:2|promo:1"
	fairDrainTPS   = 250
	fairCapacityTK = 6000
	// fairP95Slack and fairShedMax are the acceptance bounds: protected
	// victim p95 within 1.5x its solo baseline, protected victim shed under
	// 5%.
	fairP95Slack = 1.5
	fairShedMax  = 0.05
)

// gateFairness runs the adversarial screening storm (10x the victim's
// offered load) against the tenant-aware scheduler and asserts: the
// protected victim keeps its solo-baseline modeled p95 (≤ 1.5x) and sheds
// under 5 %, the storm is shed or degraded, the FIFO comparator violates
// both victim bounds, and the decision/dispatch digests reproduce across a
// rerun and across a one-worker MSA pool with batching on. The digests of
// the solo, protected and FIFO passes and the victim's p95 ratios are
// pinned.
func gateFairness(t *testing.T, g gate) {
	victims, err := ParseTenants(fairVictim, "")
	if err != nil {
		t.Fatal(err)
	}
	both, err := ParseTenants(fairVictim+";"+fairStorm, "")
	if err != nil {
		t.Fatal(err)
	}
	victim, storm := victims[0].Name, both[1].Name
	pass := func(label string, tenants []Tenant, fifo bool, tune func(*serve.Config)) serve.LoadStats {
		cfg := g.cfg
		if tune != nil {
			tune(&cfg)
		}
		st, err := QoSPass(sharedSuite, cfg, tenants, g.seed, qos.Config{
			DrainTokensPerSec: fairDrainTPS,
			CapacityTokens:    fairCapacityTK,
			// Lowered ladder: the shed rung at 0.7 leaves 1800 tokens of
			// headroom above it — more than the largest storm admission
			// (~857) plus the largest victim request (~881) — so an in-quota
			// victim can never be queue-full shed while brownout holds the
			// storm at the rung.
			Ladder: qos.Ladder{HedgeOffAt: 0.3, BatchCapAt: 0.45, DropDBAt: 0.6, ShedAt: 0.7},
			FIFO:   fifo,
		}, label)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-9s %3d req: %d done, %d shed | victim p95 %.0fms | digests %s/%s", label, st.Requests, st.Completed, st.Shed,
			st.Fairness.TenantRow(victim).Latency.P95Ms, st.Fairness.DecisionDigest, st.Fairness.DispatchDigest)
		return st
	}
	solo := pass("solo", victims, false, nil)
	prot := pass("protected", both, false, nil)
	rerun := pass("rerun", both, false, nil)
	// The pool-size pass shrinks the MSA pool to one worker and turns on
	// cross-request batching: neither may move a single admission or
	// dispatch decision.
	pools := pass("pools", both, false, func(c *serve.Config) {
		c.MSAWorkers = 1
		c.Batch = serve.BatchConfig{Enabled: true}
	})
	fifo := pass("fifo", both, true, nil)

	shedRate := func(st serve.LoadStats) float64 {
		ts := st.Fairness.Stats(victim)
		if ts.Offered == 0 {
			return 0
		}
		return float64(ts.Shed()) / float64(ts.Offered)
	}
	p95 := func(st serve.LoadStats) float64 { return st.Fairness.TenantRow(victim).Latency.P95Ms }
	pair := func(st serve.LoadStats) [2]string {
		return [2]string{st.Fairness.DecisionDigest, st.Fairness.DispatchDigest}
	}
	p95Solo, p95Prot, p95FIFO := p95(solo), p95(prot), p95(fifo)
	shedProt, shedFIFO := shedRate(prot), shedRate(fifo)

	p95Bound := fairP95Slack * p95Solo
	if p95Solo <= 0 {
		t.Errorf("victim solo baseline produced no completed requests")
	}
	if p95Prot > p95Bound {
		t.Errorf("protected victim p95 %.0fms exceeds %.1fx solo baseline %.0fms", p95Prot, fairP95Slack, p95Solo)
	}
	if shedProt >= fairShedMax {
		t.Errorf("protected victim shed rate %.1f%% >= %.0f%%", 100*shedProt, 100*fairShedMax)
	}
	if sts := prot.Fairness.Stats(storm); sts.Shed()+sts.Degraded() == 0 {
		t.Errorf("storm tenant was never shed or degraded under 10x offered load (QoS idle)")
	}
	// The comparator must demonstrably violate BOTH bounds — otherwise the
	// gate is not proving protection, just measuring noise.
	if p95FIFO <= p95Bound {
		t.Errorf("FIFO comparator victim p95 %.0fms within the protected bound %.0fms (storm too weak)", p95FIFO, p95Bound)
	}
	if shedFIFO < fairShedMax {
		t.Errorf("FIFO comparator victim shed rate %.1f%% under %.0f%% (storm too weak)", 100*shedFIFO, 100*fairShedMax)
	}
	if pair(rerun) != pair(prot) {
		t.Errorf("rerun digests diverged: %v vs %v", pair(rerun), pair(prot))
	}
	if pair(pools) != pair(prot) {
		t.Errorf("pool-size/batching digests diverged: %v vs %v", pair(pools), pair(prot))
	}
	for _, pin := range []struct {
		st   serve.LoadStats
		want [2]string
	}{
		{solo, [2]string{"9f8bc4ea866b32e0", "fb90cc415c0ea015"}},
		{prot, [2]string{"3e3dfbe0346d0ac7", "3ba716937b53c455"}},
		{fifo, [2]string{"f8512fdd208decc6", "c22ade9096f3dbfc"}},
	} {
		if got := pair(pin.st); got != pin.want {
			t.Errorf("%s digests %v, pinned %v", pin.st.Label, got, pin.want)
		}
	}
	ratios := fmt.Sprintf("%.2fx/%.2fx", p95Prot/p95Solo, p95FIFO/p95Solo)
	if ratios != "1.13x/5.83x" {
		t.Errorf("victim p95 protected/fifo over solo = %s, pinned 1.13x/5.83x", ratios)
	}
	t.Logf("victim p95 solo %.0fms, protected %.0fms, fifo %.0fms (%s) | victim shed protected %.1f%%, fifo %.1f%%",
		p95Solo, p95Prot, p95FIFO, ratios, 100*shedProt, 100*shedFIFO)
}

// overheadFraction is the non-compute share of one modeled inference run.
func overheadFraction(p simgpu.PhaseBreakdown) float64 {
	t := p.Total()
	return (t - p.ComputeSeconds) / t
}

// gateBatchSweep asks where cross-request batching moves the serving tier
// from compile-dominated to compute-dominated (the paper's Figure 8: device
// init + XLA compile take > 75 % of GPU time for small inputs). It prices
// the modeled overhead-vs-batch curve for the mix's smallest input, first
// dispatch (which pays the compile) and steady state, and asserts the
// unbatched overhead exceeds 75 % and that both curves cross below 50 %
// within the memory-footprint batch cap; 81.6 % and a first-dispatch
// crossover at batch 6 are pinned. The measured sweeps — live cold-model
// batching servers at rising offered load, then at coarser to finer bucket
// sets — are logged, not asserted.
func gateBatchSweep(t *testing.T, g gate) {
	const mix, n, concurrency = "2PV7:3,7RCE:2,1YY9:1", 16, 4
	mach, model := g.cfg.Machine, sharedSuite.Model
	samples, _, err := inputs.ParseMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	var in *inputs.Input
	for _, name := range samples {
		cand, err := inputs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if in == nil || cand.TotalResidues() < in.TotalResidues() {
			in = cand
		}
	}
	tokens := in.TotalResidues()
	bucket := batch.Default().PadTo(tokens)
	maxBatch := model.MaxBatch(mach, bucket)
	hp, err := sharedSuite.CompileSim(mach, bucket)
	if err != nil {
		t.Fatal(err)
	}
	var unbatched float64
	crossFirst, crossSteady := 0, 0
	for b := 1; b <= min(maxBatch, 16); b++ {
		first, err := simgpu.BatchedInference(mach, model, bucket, b, simgpu.InferenceOptions{Threads: g.cfg.Threads, CompileSeconds: hp.CompileSeconds})
		if err != nil {
			t.Fatal(err)
		}
		steady, err := simgpu.BatchedInference(mach, model, bucket, b, simgpu.InferenceOptions{Threads: g.cfg.Threads})
		if err != nil {
			t.Fatal(err)
		}
		if b == 1 {
			unbatched = overheadFraction(first)
		}
		if crossFirst == 0 && overheadFraction(first) < 0.5 {
			crossFirst = b
		}
		if crossSteady == 0 && overheadFraction(steady) < 0.5 {
			crossSteady = b
		}
		t.Logf("B=%-3d first %.0fs (%.1f%% overhead) | steady %.0fs (%.1f%% overhead) | %.1fs/request",
			b, first.Total(), 100*overheadFraction(first), steady.Total(), 100*overheadFraction(steady), steady.Total()/float64(b))
	}
	t.Logf("%s (%d tokens -> bucket %d), memory cap %d: unbatched overhead %.1f%%; <50%% at batch %d (first dispatch), %d (steady)",
		in.Name, tokens, bucket, maxBatch, 100*unbatched, crossFirst, crossSteady)

	trace, err := Trace(mix, 0, n, g.seed)
	if err != nil {
		t.Fatal(err)
	}
	measured := func(conc int, buckets []int) (*serve.BatchReport, float64) {
		cfg := g.cfg
		cfg.Cache = cache.New(512 << 20)
		cfg.ColdModel = true
		cfg.Batch = serve.BatchConfig{Enabled: true, Buckets: buckets}
		st := ClosedPass(sharedSuite, cfg, trace, conc, "", false)
		if st.Batch == nil {
			t.Fatalf("batch report missing from the measured pass at concurrency %d", conc)
		}
		return st.Batch, st.Throughput
	}
	for _, conc := range []int{1, 2, 4, 8} {
		b, rps := measured(conc, nil)
		t.Logf("load c=%d: mean batch %.2f, overhead %.1f%%, compile hit rate %.0f%%, waste %.1f%%, %.2f req/s",
			conc, b.MeanBatchSize, 100*b.OverheadFraction, 100*b.CompileCache.HitRate(), b.PaddingWastePct, rps)
	}
	for _, buckets := range [][]int{{2048}, {512, 2048}, {256, 512, 1024, 2048}, batch.DefaultBuckets()} {
		b, _ := measured(concurrency, buckets)
		t.Logf("buckets %v: waste %.1f%%, %d compiles, mean batch %.2f, overhead %.1f%%",
			b.Buckets, b.PaddingWastePct, b.CompileCache.Misses, b.MeanBatchSize, 100*b.OverheadFraction)
	}

	if unbatched <= 0.75 {
		t.Errorf("unbatched overhead %.1f%% does not reach the paper's >75%% small-input regime", 100*unbatched)
	}
	if crossFirst == 0 || crossSteady == 0 {
		t.Errorf("batching never crossed below 50%% overhead within the memory cap %d", maxBatch)
	}
	if got := fmt.Sprintf("%.1f%%, crossover %d", 100*unbatched, crossFirst); got != "81.6%, crossover 6" || crossFirst >= maxBatch {
		t.Errorf("unbatched overhead %s (cap %d), pinned 81.6%%, crossover 6", got, maxBatch)
	}
}
