package main

// QoS mode and the fairness gate.
//
// afload -qos drives the merged tenant trace open-loop through a
// tenant-aware scheduler: every submission carries (tenant, modeled
// arrival) and happens before Start, so the admission decisions and the
// WFQ dispatch order are a pure function of (seed, tenant spec) — the
// per-tenant outcome lands in the report's fairness block.
//
// afload -fairness is the adversarial chaos gate (`make fairness`): a
// screening storm offers 10x the victim's load (bursty arrivals, poly-Q
// heavy PPI mix) and the gate asserts that with QoS on the victim keeps
// its solo-baseline latency and shed rate, that the FIFO comparator
// demonstrably violates both, and that the decision/dispatch digests
// reproduce bit-for-bit across a rerun and across pool sizes.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"afsysbench/internal/batch"
	"afsysbench/internal/core"
	"afsysbench/internal/platform"
	"afsysbench/internal/qos"
	"afsysbench/internal/resilience"
	"afsysbench/internal/serve"
)

// Fairness-gate scenario: the victim is an interactive tenant with a
// small-sample mix and 8x weight; the storm is a bulk screening tenant
// offering 10x the victim's request count at 16x its arrival rate
// (bursty MMPP arrivals, PPI pairs with the poly-Q promoter complex
// mixed in) under a token-bucket quota. Drain/capacity are sized so the
// storm's unthrottled offered load outruns the modeled drain — in FIFO
// mode the backlog pegs and sheds land on whoever arrives next,
// including the victim; with QoS on the storm's bucket and the brownout
// ladder absorb the excess and the victim rides its weight share.
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
	// victim p95 within 1.5x its solo baseline, protected victim shed
	// under 5%.
	fairP95Slack = 1.5
	fairShedMax  = 0.05
	// fairModeledCPU/GPU are the fixed modeled lane counts the latency
	// replay uses — inputs to the model, never the live pool sizes, so
	// the gate's numbers are identical at any -msa-workers.
	fairModeledCPU = 4
	fairModeledGPU = 2
)

// qosPassConfig tunes one open-loop QoS pass.
type qosPassConfig struct {
	fifo       bool
	drainTPS   float64
	capacityTK float64
	ladder     qos.Ladder
	msaWorkers int
	batch      serve.BatchConfig
}

// runQoSPass builds a tenant-aware scheduler, submits the merged event
// trace open-loop (all submissions precede Start), drains it, and
// returns the stats with the fairness block attached.
func runQoSPass(o options, suite *core.Suite, mach platform.Machine, tenants []tenantSpec, label string, pc qosPassConfig) (serve.LoadStats, error) {
	events, err := buildTenantEvents(tenants, o.seed)
	if err != nil {
		return serve.LoadStats{}, err
	}
	ctrl := qos.NewController(qos.Config{
		Tenants:           quotaMap(tenants),
		DrainTokensPerSec: pc.drainTPS,
		CapacityTokens:    pc.capacityTK,
		Ladder:            pc.ladder,
		FIFO:              pc.fifo,
	})
	s := serve.NewWithSuite(suite, serve.Config{
		Machine:    mach,
		Threads:    o.threads,
		MSAWorkers: pc.msaWorkers,
		GPUWorkers: o.gpuWorkers,
		QueueDepth: o.queue,
		QoS:        ctrl,
		Batch:      pc.batch,
	})
	var stats serve.LoadStats
	stats.Label = label
	stats.Requests = len(events)
	start := time.Now()
	for _, ev := range events {
		_, err := s.Submit(serve.Request{
			Sample:  ev.sample,
			Threads: o.threads,
			Tenant:  ev.tenant,
			Arrival: ev.arrival,
		})
		switch {
		case resilience.IsOverloaded(err):
			stats.Shed++
		case err != nil:
			return stats, fmt.Errorf("submit %s for %s: %v", ev.sample, ev.tenant, err)
		}
	}
	s.Start()
	if err := s.WaitIdle(context.Background()); err != nil {
		return stats, err
	}
	s.Stop()
	stats.WallSeconds = time.Since(start).Seconds()
	for _, st := range s.Statuses() {
		if st.State == "done" {
			stats.Completed++
		} else {
			stats.Failed++
		}
	}
	if stats.WallSeconds > 0 {
		stats.Throughput = float64(stats.Completed) / stats.WallSeconds
	}
	if stats.Requests > 0 {
		stats.ShedRate = float64(stats.Shed) / float64(stats.Requests)
	}
	m := s.Metrics()
	stats.Routing = &serve.RoutingBreakdown{
		Shed:            m.Get("requests_shed"),
		ShedQueueFull:   m.Get("requests_shed_queue_full"),
		ShedRateLimited: m.Get("requests_shed_rate_limited"),
		ShedBrownout:    m.Get("requests_shed_brownout"),
		Hedges:          m.Get("msa_hedges"),
		StageRetries:    m.Get("msa_stage_retries"),
		PartialMSA:      m.Get("requests_partial_msa"),
	}
	stats.Fairness = s.FairnessReport(fairModeledCPU, fairModeledGPU)
	// Open-loop latency is the modeled per-tenant distribution; the
	// headline Latency block aggregates all tenants on the same replay.
	stats.Latency = serve.Summarize(allModeledLatencies(stats.Fairness))
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

// allModeledLatencies flattens the per-tenant modeled latency rows into
// one series for the headline percentiles. Percentile interpolation
// needs raw samples, which the rows no longer carry, so this rebuilds an
// approximate series by repeating each tenant's p50 — good enough for a
// label-level summary. (Per-tenant numbers, the ones the gate asserts
// on, are exact.)
func allModeledLatencies(rep *serve.FairnessReport) []float64 {
	var out []float64
	for _, row := range rep.Latencies {
		for i := 0; i < row.Completed; i++ {
			out = append(out, row.Latency.P50Ms)
		}
	}
	return out
}

// runQoS is the -qos mode: one tenant-aware open-loop pass over the
// -tenants spec (or a single default tenant over -mix), reported with
// the per-tenant fairness block.
func runQoS(o options, out *os.File) error {
	tenants, err := qosTenants(o)
	if err != nil {
		return err
	}
	mach, err := platform.ByName(o.machine)
	if err != nil {
		return err
	}
	suite, err := core.NewSuite()
	if err != nil {
		return err
	}
	var bcfg serve.BatchConfig
	if o.batch {
		buckets, err := batch.ParseBuckets(o.batchBuckets)
		if err != nil {
			return err
		}
		bcfg = serve.BatchConfig{Enabled: true, Buckets: buckets, MaxBatch: o.maxBatch}
	}
	stats, err := runQoSPass(o, suite, mach, tenants, "qos", qosPassConfig{
		msaWorkers: o.msaWorkers,
		batch:      bcfg,
	})
	if err != nil {
		return err
	}
	printStats(out, stats)
	printFairness(out, stats.Fairness)
	report := serve.LoadReport{
		Mix:         "qos:" + o.tenants,
		Requests:    stats.Requests,
		Concurrency: o.concurrency,
		Threads:     o.threads,
		MSAWorkers:  o.msaWorkers,
		GPUWorkers:  o.gpuWorkers,
		QueueDepth:  o.queue,
		Seed:        o.seed,
		QoS:         &stats,
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

// qosTenants resolves the -qos tenant set: the -tenants spec, or a
// single default tenant offering the stock -mix at the -trace-shape.
func qosTenants(o options) ([]tenantSpec, error) {
	spec := o.tenants
	if spec == "" {
		spec = fmt.Sprintf("default:n=%d", o.n)
	}
	return parseTenants(spec, o.traceShape, o.mix)
}

func printFairness(w *os.File, rep *serve.FairnessReport) {
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

// FairnessGateReport is the machine-readable outcome of the fairness
// gate (written by -json in -fairness mode).
type FairnessGateReport struct {
	Seed   uint64 `json:"seed"`
	Victim string `json:"victim"`
	Storm  string `json:"storm"`

	// Modeled victim p95 (ms) solo, protected (QoS on, storm present)
	// and unprotected (FIFO comparator); shed rates likewise.
	VictimP95Solo        float64 `json:"victim_p95_solo_ms"`
	VictimP95Protected   float64 `json:"victim_p95_protected_ms"`
	VictimP95Unprotected float64 `json:"victim_p95_unprotected_ms"`
	VictimShedProtected  float64 `json:"victim_shed_protected"`
	VictimShedFIFO       float64 `json:"victim_shed_unprotected"`

	// Digest pairs (decision/dispatch) for the protected pass, its
	// rerun, and the different-pool-size (+batching) pass.
	DigestsProtected [2]string `json:"digests_protected"`
	DigestsRerun     [2]string `json:"digests_rerun"`
	DigestsPools     [2]string `json:"digests_pools"`

	Passes      []serve.LoadStats `json:"passes"`
	WallSeconds float64           `json:"wall_seconds"`

	// Violations lists every broken invariant; empty means the gate
	// passed.
	Violations []string `json:"violations,omitempty"`
}

// runFairness executes the gate and returns an error (after printing the
// report and the reproduction line) if any invariant broke.
func runFairness(o options, out *os.File) error {
	victims, err := parseTenants(fairVictim, "", o.mix)
	if err != nil {
		return err
	}
	both, err := parseTenants(fairVictim+";"+fairStorm, "", o.mix)
	if err != nil {
		return err
	}
	victimName, stormName := victims[0].name, both[1].name
	mach, err := platform.ByName(o.machine)
	if err != nil {
		return err
	}
	suite, err := core.NewSuite()
	if err != nil {
		return err
	}
	rep := FairnessGateReport{Seed: o.seed, Victim: victimName, Storm: stormName}
	start := time.Now()
	gatePass := func(label string, tenants []tenantSpec, pc qosPassConfig) (serve.LoadStats, error) {
		pc.drainTPS = fairDrainTPS
		pc.capacityTK = fairCapacityTK
		// Lowered ladder: the shed rung at 0.7 leaves 1800 tokens of
		// headroom above it — more than the largest storm admission
		// (~857) plus the largest victim request (~881) — so an in-quota
		// victim can never be queue-full shed while brownout holds the
		// storm at the rung.
		pc.ladder = qos.Ladder{HedgeOffAt: 0.3, BatchCapAt: 0.45, DropDBAt: 0.6, ShedAt: 0.7}
		st, err := runQoSPass(o, suite, mach, tenants, label, pc)
		if err != nil {
			return st, err
		}
		printStats(out, st)
		printFairness(out, st.Fairness)
		rep.Passes = append(rep.Passes, st)
		return st, nil
	}

	solo, err := gatePass("solo", victims, qosPassConfig{msaWorkers: o.msaWorkers})
	if err != nil {
		return err
	}
	prot, err := gatePass("protected", both, qosPassConfig{msaWorkers: o.msaWorkers})
	if err != nil {
		return err
	}
	rerun, err := gatePass("rerun", both, qosPassConfig{msaWorkers: o.msaWorkers})
	if err != nil {
		return err
	}
	// The pool-size pass shrinks the MSA pool to one worker and turns on
	// cross-request batching: neither may move a single admission or
	// dispatch decision.
	pools, err := gatePass("pools", both, qosPassConfig{msaWorkers: 1, batch: serve.BatchConfig{Enabled: true}})
	if err != nil {
		return err
	}
	fifo, err := gatePass("fifo", both, qosPassConfig{fifo: true, msaWorkers: o.msaWorkers})
	if err != nil {
		return err
	}
	rep.WallSeconds = time.Since(start).Seconds()

	shedRate := func(st serve.LoadStats, tenant string) float64 {
		ts := st.Fairness.Stats(tenant)
		if ts.Offered == 0 {
			return 0
		}
		return float64(ts.Shed()) / float64(ts.Offered)
	}
	rep.VictimP95Solo = solo.Fairness.TenantRow(victimName).Latency.P95Ms
	rep.VictimP95Protected = prot.Fairness.TenantRow(victimName).Latency.P95Ms
	rep.VictimP95Unprotected = fifo.Fairness.TenantRow(victimName).Latency.P95Ms
	rep.VictimShedProtected = shedRate(prot, victimName)
	rep.VictimShedFIFO = shedRate(fifo, victimName)
	rep.DigestsProtected = [2]string{prot.Fairness.DecisionDigest, prot.Fairness.DispatchDigest}
	rep.DigestsRerun = [2]string{rerun.Fairness.DecisionDigest, rerun.Fairness.DispatchDigest}
	rep.DigestsPools = [2]string{pools.Fairness.DecisionDigest, pools.Fairness.DispatchDigest}

	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	p95Bound := fairP95Slack * rep.VictimP95Solo
	if rep.VictimP95Solo <= 0 {
		violate("victim solo baseline produced no completed requests")
	}
	if rep.VictimP95Protected > p95Bound {
		violate("protected victim p95 %.0fms exceeds %.1fx solo baseline %.0fms",
			rep.VictimP95Protected, fairP95Slack, rep.VictimP95Solo)
	}
	if rep.VictimShedProtected >= fairShedMax {
		violate("protected victim shed rate %.1f%% >= %.0f%%",
			100*rep.VictimShedProtected, 100*fairShedMax)
	}
	if sts := prot.Fairness.Stats(stormName); sts.Shed()+sts.Degraded() == 0 {
		violate("storm tenant was never shed or degraded under 10x offered load (QoS idle)")
	}
	// The comparator must demonstrably violate BOTH bounds — otherwise
	// the gate is not proving protection, just measuring noise.
	if rep.VictimP95Unprotected <= p95Bound {
		violate("FIFO comparator victim p95 %.0fms within the protected bound %.0fms (storm too weak)",
			rep.VictimP95Unprotected, p95Bound)
	}
	if rep.VictimShedFIFO < fairShedMax {
		violate("FIFO comparator victim shed rate %.1f%% under %.0f%% (storm too weak)",
			100*rep.VictimShedFIFO, 100*fairShedMax)
	}
	if rep.DigestsRerun != rep.DigestsProtected {
		violate("rerun digests diverged: %v vs %v", rep.DigestsRerun, rep.DigestsProtected)
	}
	if rep.DigestsPools != rep.DigestsProtected {
		violate("pool-size/batching digests diverged: %v vs %v", rep.DigestsPools, rep.DigestsProtected)
	}

	fmt.Fprintf(out, "fairness seed %d: victim p95 solo %.0fms, protected %.0fms (%.2fx), fifo %.0fms (%.2fx) | victim shed protected %.1f%%, fifo %.1f%% | %.1fs wall\n",
		o.seed, rep.VictimP95Solo, rep.VictimP95Protected, ratio(rep.VictimP95Protected, rep.VictimP95Solo),
		rep.VictimP95Unprotected, ratio(rep.VictimP95Unprotected, rep.VictimP95Solo),
		100*rep.VictimShedProtected, 100*rep.VictimShedFIFO, rep.WallSeconds)
	for _, v := range rep.Violations {
		fmt.Fprintf(out, "fairness VIOLATION: %s\n", v)
	}
	if o.jsonPath != "" {
		f, err := os.Create(o.jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", o.jsonPath)
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("fairness gate FAILED (%d violations); reproduce with: afload -fairness -seed %d",
			len(rep.Violations), o.seed)
	}
	fmt.Fprintf(out, "fairness: all invariants held (seed %d)\n", o.seed)
	return nil
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
