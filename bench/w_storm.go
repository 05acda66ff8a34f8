package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"afsysbench/internal/batch"
	"afsysbench/internal/cache"
	"afsysbench/internal/core"
	"afsysbench/internal/qos"
	"afsysbench/internal/resilience"
	"afsysbench/internal/rng"
	"afsysbench/internal/serve"
	"afsysbench/internal/stats"
)

// tenant is one tenant's quota and the load it offers. The two below are
// the fairness gate's scenario (cmd/afload -fairness) scaled up: the same
// weights, quota, shapes and mixes, more requests.
type tenant struct {
	name    string
	quota   qos.TenantConfig
	rps     float64 // mean modeled arrival rate
	n       int
	shape   string
	samples []string
	weights []int
}

const victimName = "inter"

func stormTenants(smoke bool) []tenant {
	victimN, stormN := 100, 1000
	stormMix, stormWeights := []string{"ppi-0x1", "ppi-2x3", "ppi-4x5", "promo"}, []int{2, 2, 2, 1}
	if smoke {
		// No poly-Q promo: its first search alone is 1.5 s.
		victimN, stormN = 10, 100
		stormMix, stormWeights = stormMix[:3], stormWeights[:3]
	}
	return []tenant{
		{name: victimName, quota: qos.TenantConfig{Weight: 8}, rps: 0.4, n: victimN, shape: "uniform",
			samples: []string{"2PV7", "7RCE"}, weights: []int{3, 2}},
		{name: "storm", quota: qos.TenantConfig{Weight: 1, Rate: 600, Burst: 1200}, rps: 4, n: stormN, shape: "bursty",
			samples: stormMix, weights: stormWeights},
	}
}

// Controller sizing from the fairness gate: the storm's unthrottled load
// outruns the modeled drain, so the bucket, the brownout ladder and the
// queue bound all come into play.
func stormController(tenants []tenant) *qos.Controller {
	quotas := make(map[string]qos.TenantConfig, len(tenants))
	for _, t := range tenants {
		quotas[t.name] = t.quota
	}
	return qos.NewController(qos.Config{
		Tenants:           quotas,
		DrainTokensPerSec: 250,
		CapacityTokens:    6000,
		Ladder:            qos.Ladder{HedgeOffAt: 0.3, BatchCapAt: 0.45, DropDBAt: 0.6, ShedAt: 0.7},
	})
}

// Modeled lane counts for the two virtual-time replays: inputs to the
// model, never the live pool sizes.
const (
	modeledCPULanes = 4
	modeledGPULanes = 2
)

// event is one submission of the merged tenant trace.
type event struct {
	tenant  string
	sample  string
	arrival float64 // modeled seconds
}

// stormEvents synthesizes each tenant's (sample, arrival) stream and merges
// them in arrival order. Every round replays its own variant of the storm —
// same tenants, quotas, shapes and mixes, another draw — because which
// requests a burst gets shed is the dominant run-to-run difference in this
// workload, and a run that averages 20 draws is steady where a run that
// repeats one draw 20 times is only as typical as that draw. The server
// only ever sees the result: sample name, tenant, modeled arrival.
func stormEvents(tenants []tenant, seed uint64, round int) ([]event, error) {
	seed = rng.New(seed).Split(uint64(round + 1)).Uint64()
	var events []event
	for _, t := range tenants {
		h := fnv.New64a()
		_, _ = h.Write([]byte(t.name))
		lane := h.Sum64()
		total := 0
		for _, w := range t.weights {
			total += w
		}
		draw := rng.New(seed ^ lane).Split(0x10AD)
		arrivals, err := qos.Arrivals(t.shape, t.n, t.rps, rng.New(seed).Split(lane))
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", t.name, err)
		}
		for i := 0; i < t.n; i++ {
			pick := draw.Split(uint64(i)).Intn(total)
			k := 0
			for pick >= t.weights[k] {
				pick -= t.weights[k]
				k++
			}
			events = append(events, event{tenant: t.name, sample: t.samples[k], arrival: arrivals[i]})
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].arrival != events[b].arrival {
			return events[a].arrival < events[b].arrival
		}
		return events[a].tenant < events[b].tenant
	})
	return events, nil
}

// stormOutcome is what a replay of one storm variant must come to, exactly.
type stormOutcome struct {
	decision, dispatch string
	shed               int
}

// oracle replays a variant through qos's public pieces alone — controller
// admissions in arrival order, then the weighted-fair queue drained by one
// consumer — and returns the digests and shed count the server, with its
// pools, batching and caches, must reproduce. Sub-millisecond, so every
// round gets its own.
func (w *tenantStorm) oracle(events []event) stormOutcome {
	ctrl := stormController(w.tenants)
	q := qos.NewWFQ[string](0, ctrl.Weight)
	var out stormOutcome
	admitted := 0
	for _, e := range events {
		cost := float64(w.refs[e.sample].in.TotalResidues())
		if ctrl.Admit(e.tenant, e.arrival, cost).Admit {
			q.Push(e.tenant, cost, e.tenant)
			admitted++
		} else {
			out.shed++
		}
	}
	for ; admitted > 0; admitted-- {
		name, seq, _ := q.Pop()
		ctrl.RecordDispatch(name, seq)
	}
	out.decision, out.dispatch = ctrl.DecisionDigest(), ctrl.DispatchDigest()
	return out
}

type tenantStorm struct {
	suite   *core.Suite
	tenants []tenant
	refs    map[string]reference
	cache   *cache.Cache
	// degraded maps sample|rung to the first result digest seen under that
	// brownout rung (in the warm pass, normally); see wantDigest.
	degraded map[string]string
}

func (w *tenantStorm) setup(r *run) error {
	var err error
	if w.suite, err = core.NewSuite(); err != nil {
		return err
	}
	w.tenants = stormTenants(r.smoke)
	if w.refs, err = references(w.suite, w.samples()); err != nil {
		return err
	}
	// The chain cache is warmed by running the warm-up round's storm once;
	// every variant draws on the same eight chains.
	w.cache = cache.New(0)
	w.degraded = make(map[string]string)
	warmRun := &run{seed: r.seed, counts: map[string]int{}}
	if _, _, err = w.replay(warmRun, -1); err != nil {
		return err
	}
	if warmRun.failed > 0 {
		return fmt.Errorf("warm pass: %d failures, first: %s", warmRun.failed, warmRun.failures[0])
	}
	return nil
}

// wantDigest is the digest a finished request must have: its sample's
// reference, or — for one that ran under a brownout rung, which no direct
// run reproduces — the first sighting's for the same sample and rung.
func (w *tenantStorm) wantDigest(st serve.JobStatus, got string) string {
	if !st.Degraded {
		return w.refs[st.Sample].digest
	}
	key := st.Sample + "|" + st.QoSLevel
	if first, seen := w.degraded[key]; seen {
		return first
	}
	w.degraded[key] = got
	return got
}

// samples lists every sample any tenant can draw.
func (w *tenantStorm) samples() []string {
	var names []string
	for _, t := range w.tenants {
		names = append(names, t.samples...)
	}
	return names
}

// replay runs round i's storm on a fresh server and controller: submit
// every event in arrival order, start the pools, drain, and run the two
// virtual-time replays — that much inside the timed window. The server is
// returned stopped, with the round's events.
func (w *tenantStorm) replay(r *run, i int) (*serve.Server, []event, error) {
	events, err := stormEvents(w.tenants, r.seed, i)
	if err != nil {
		return nil, nil, err
	}
	want := w.oracle(events)
	cfg := baseConfig()
	cfg.Cache = w.cache
	cfg.QoS = stormController(w.tenants)
	cfg.Batch = serve.BatchConfig{Enabled: true}
	r.arm(&cfg)
	srv := serve.NewWithSuite(w.suite, cfg)
	var out stormOutcome
	var rep *serve.FairnessReport
	var replayErr error
	var submitUs []float64
	r.window(len(events), func() int {
		for _, e := range events {
			t0 := time.Now()
			_, err := srv.Submit(serve.Request{Sample: e.sample, Tenant: e.tenant, Arrival: e.arrival})
			if r.tr != nil {
				submitUs = append(submitUs, float64(time.Since(t0))/float64(time.Microsecond))
			}
			switch {
			case resilience.IsOverloaded(err):
				out.shed++
			case err != nil:
				replayErr = fmt.Errorf("submit %s for %s: %w", e.sample, e.tenant, err)
				return 0
			}
		}
		srv.Start()
		if replayErr = waitIdle(srv); replayErr != nil {
			return 0
		}
		t0 := time.Now()
		rep = srv.FairnessReport(modeledCPULanes, modeledGPULanes)
		t1 := time.Now()
		_ = srv.ModeledSchedule(modeledCPULanes, modeledGPULanes)
		if r.tr != nil {
			r.layer["serve.submit_us_p50"] = stats.Median(submitUs)
			r.layer["serve.fairness_report_ms"] = ms(t1.Sub(t0))
			r.layer["serve.modeled_schedule_ms"] = ms(time.Since(t1))
		}
		return len(events) - out.shed
	})
	srv.Stop()
	if replayErr != nil {
		return srv, events, replayErr
	}
	out.decision, out.dispatch = rep.DecisionDigest, rep.DispatchDigest
	if out != want {
		r.fail("QoS outcome %+v, independent replay %+v", out, want)
	} else if r.tr != nil {
		r.layer["qos.digest_stable"] = 1
	}

	statuses := srv.Statuses()
	outs := make([]outcome, len(statuses))
	for k, st := range statuses {
		// Every arrival is pre-submitted, so a job's wall time is its queue
		// position in the drain: that is this workload's op latency.
		outs[k] = outcome{sample: st.Sample, status: st, latencyMs: st.WallMs}
		outs[k].result, _ = srv.Result(st.ID)
	}
	r.settle(outs, len(events), w.wantDigest)
	r.victimP95 = append(r.victimP95, rep.TenantRow(victimName).Latency.P95Ms/1000)
	r.counts["storm_offered"] += len(events)
	r.counts["storm_shed"] += out.shed
	r.counts["victim_shed"] += rep.Stats(victimName).Shed()
	return srv, events, nil
}

func (w *tenantStorm) round(r *run, i int) error {
	_, _, err := w.replay(r, i)
	return err
}

func (w *tenantStorm) traced(r *run) error {
	srv, events, err := w.replay(r, 0)
	if err != nil {
		return err
	}
	r.stormSpans(srv)
	t0 := time.Now()
	_ = srv.Statuses()
	r.layer["serve.statuses_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	_ = srv.MetricsSnapshot()
	r.layer["serve.metrics_snapshot_ms"] = ms(time.Since(t0))
	r.registryCounts(srv)
	for _, ts := range srv.Config().QoS.Snapshot() {
		r.layer["qos.shed_rate_limited"] += float64(ts.ShedRateLimited)
		r.layer["qos.shed_brownout"] += float64(ts.ShedBrownout)
		r.layer["qos.shed_queue_full"] += float64(ts.ShedQueueFull)
		r.layer["qos.degraded"] += float64(ts.Degraded())
	}
	r.cacheStats(w.cache)
	jobs := len(srv.Statuses())
	held := liveHeapMB()
	runtime.KeepAlive(srv) // the stopped server is reachable up to here, not beyond
	r.retained(held, jobs)

	w.qosPass(r, events)
	names := w.samples()
	r.msaPass(w.suite, names, r.corePass(w.suite, names), false)
	r.cachePass(w.cache)
	r.simPasses(w.suite, names)
	return nil
}

// stormSpans records the stage spans of the traced replay between serve's
// guard points. Every job was submitted before Start, so queue wait is WFQ
// position and is not a span; nor is the inference stage, whose end only
// the server knows.
func (r *run) stormSpans(srv *serve.Server) {
	var msaStage, handoff, wall []float64
	for _, st := range srv.Statuses() {
		ordinal := jobOrdinal(st.ID)
		marks := r.tr.takeMarks(ordinal)
		if st.State != "done" || len(marks) < 3 {
			continue
		}
		root := r.tr.add("serve.job", marks["msa"], marks["inference"], -1, ordinal)
		r.tr.add("serve.msa_stage", marks["msa"], marks["handoff"], root, ordinal)
		r.tr.add("serve.handoff_wait", marks["handoff"], marks["inference"], root, ordinal)
		msaStage = append(msaStage, ms(marks["handoff"].Sub(marks["msa"])))
		handoff = append(handoff, ms(marks["inference"].Sub(marks["handoff"])))
		wall = append(wall, st.WallMs)
	}
	r.layer["serve.msa_stage_ms_p50"] = stats.Median(msaStage)
	r.layer["serve.handoff_wait_ms_p50"] = stats.Median(handoff)
	r.layer["serve.wall_ms_p50"] = stats.Median(wall)
}

// qosPass times the admission and queueing micro-operations on the
// storm's own event list, and the batch planner on its admitted tokens.
func (w *tenantStorm) qosPass(r *run, events []event) {
	costs := make([]float64, len(events))
	for i, e := range events {
		costs[i] = float64(w.refs[e.sample].in.TotalResidues())
	}
	const reps = 20
	var admit, push, pop []float64
	var items []batch.Item
	for rep := 0; rep < reps; rep++ {
		ctrl := stormController(w.tenants)
		admitted := make([]bool, len(events))
		admit = append(admit, nsPerCall(len(events), func(i int) {
			admitted[i] = ctrl.Admit(events[i].tenant, events[i].arrival, costs[i]).Admit
		}))
		q := qos.NewWFQ[int](0, ctrl.Weight)
		n := 0
		t0 := time.Now()
		for i, ok := range admitted {
			if ok {
				q.Push(events[i].tenant, costs[i], i)
				n++
			}
		}
		t1 := time.Now()
		for k := 0; k < n; k++ {
			q.Pop()
		}
		t2 := time.Now()
		if n > 0 {
			push = append(push, float64(t1.Sub(t0).Nanoseconds())/float64(n))
			pop = append(pop, float64(t2.Sub(t1).Nanoseconds())/float64(n))
		}
		if rep == 0 {
			for i, ok := range admitted {
				if ok {
					items = append(items, batch.Item{Tokens: int(costs[i]), Lane: "server/1"})
				}
			}
		}
	}
	r.layer["qos.admit_ns"] = stats.Median(admit)
	r.layer["qos.wfq_push_ns"] = stats.Median(push)
	r.layer["qos.wfq_pop_ns"] = stats.Median(pop)
	policy := batch.Default()
	mach := serverMachine()
	capFor := func(bucket int) int { return w.suite.Model.MaxBatch(mach, bucket) }
	r.layer["batch.plan_us"] = stats.Median(timeEach(reps, time.Microsecond, func(int) { _ = policy.Plan(items, capFor) }))
}

func (w *tenantStorm) close() {}
