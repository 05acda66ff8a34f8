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
	"fmt"
	"os"
	"time"

	"afsysbench/internal/core"
	"afsysbench/internal/qos"
	"afsysbench/internal/scenario"
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

// qosPass is one open-loop server lifetime: a cache-less tenant-aware
// scheduler wired from the flags under a controller built from qcfg and
// the tenants' quotas — tune, when non-nil, then sets the Config fields
// the caller's pass owns — fed the merged event trace before Start,
// drained, and scraped with the fairness block attached.
func qosPass(o options, suite *core.Suite, tenants []scenario.Tenant, label string, qcfg qos.Config, tune func(*serve.Config)) (serve.LoadStats, error) {
	events, err := scenario.Events(tenants, o.seed)
	if err != nil {
		return serve.LoadStats{}, err
	}
	f := o.Flags
	f.CacheMB = 0
	cfg, err := f.Config()
	if err != nil {
		return serve.LoadStats{}, err
	}
	qcfg.Tenants = scenario.Quotas(tenants)
	cfg.QoS = qos.NewController(qcfg)
	if tune != nil {
		tune(&cfg)
	}
	s := serve.NewWithSuite(suite, cfg)
	stats, err := scenario.OpenLoop(s, events, o.Threads)
	if err != nil {
		return stats, err
	}
	stats.Label = label
	scenario.Collect(s, &stats, fairModeledCPU, fairModeledGPU)
	return stats, nil
}

// runQoS is the -qos mode: one tenant-aware open-loop pass over the
// -tenants spec (or a single default tenant over -mix), reported with
// the per-tenant fairness block.
func runQoS(o options, out *os.File) error {
	suite, err := core.NewSuite()
	if err != nil {
		return err
	}
	stats, err := qosPass(o, suite, o.qosTenants, "qos", qos.Config{}, nil)
	if err != nil {
		return err
	}
	printStats(out, stats)
	printFairness(out, stats.Fairness)
	if o.jsonPath != "" {
		report := o.report("qos:"+o.tenants, stats.Requests)
		report.QoS = &stats
		return scenario.WriteJSON(out, o.jsonPath, report)
	}
	return nil
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

	scenario.Verdict
}

// runFairness executes the gate and returns an error (after printing the
// report and the reproduction line) if any invariant broke.
func runFairness(o options, out *os.File) error {
	victims, err := scenario.ParseTenants(fairVictim, o.mix)
	if err != nil {
		return err
	}
	both, err := scenario.ParseTenants(fairVictim+";"+fairStorm, o.mix)
	if err != nil {
		return err
	}
	victimName, stormName := victims[0].Name, both[1].Name
	suite, err := core.NewSuite()
	if err != nil {
		return err
	}
	rep := FairnessGateReport{Seed: o.seed, Victim: victimName, Storm: stormName}
	start := time.Now()
	gatePass := func(label string, tenants []scenario.Tenant, fifo bool, tune func(*serve.Config)) (serve.LoadStats, error) {
		st, err := qosPass(o, suite, tenants, label, qos.Config{
			DrainTokensPerSec: fairDrainTPS,
			CapacityTokens:    fairCapacityTK,
			// Lowered ladder: the shed rung at 0.7 leaves 1800 tokens of
			// headroom above it — more than the largest storm admission
			// (~857) plus the largest victim request (~881) — so an in-quota
			// victim can never be queue-full shed while brownout holds the
			// storm at the rung.
			Ladder: qos.Ladder{HedgeOffAt: 0.3, BatchCapAt: 0.45, DropDBAt: 0.6, ShedAt: 0.7},
			FIFO:   fifo,
		}, tune)
		if err != nil {
			return st, err
		}
		printStats(out, st)
		printFairness(out, st.Fairness)
		rep.Passes = append(rep.Passes, st)
		return st, nil
	}

	solo, err := gatePass("solo", victims, false, nil)
	if err != nil {
		return err
	}
	prot, err := gatePass("protected", both, false, nil)
	if err != nil {
		return err
	}
	rerun, err := gatePass("rerun", both, false, nil)
	if err != nil {
		return err
	}
	// The pool-size pass shrinks the MSA pool to one worker and turns on
	// cross-request batching: neither may move a single admission or
	// dispatch decision.
	pools, err := gatePass("pools", both, false, func(c *serve.Config) {
		c.MSAWorkers = 1
		c.Batch = serve.BatchConfig{Enabled: true}
	})
	if err != nil {
		return err
	}
	fifo, err := gatePass("fifo", both, true, nil)
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

	p95Bound := fairP95Slack * rep.VictimP95Solo
	if rep.VictimP95Solo <= 0 {
		rep.Failf("victim solo baseline produced no completed requests")
	}
	if rep.VictimP95Protected > p95Bound {
		rep.Failf("protected victim p95 %.0fms exceeds %.1fx solo baseline %.0fms",
			rep.VictimP95Protected, fairP95Slack, rep.VictimP95Solo)
	}
	if rep.VictimShedProtected >= fairShedMax {
		rep.Failf("protected victim shed rate %.1f%% >= %.0f%%",
			100*rep.VictimShedProtected, 100*fairShedMax)
	}
	if sts := prot.Fairness.Stats(stormName); sts.Shed()+sts.Degraded() == 0 {
		rep.Failf("storm tenant was never shed or degraded under 10x offered load (QoS idle)")
	}
	// The comparator must demonstrably violate BOTH bounds — otherwise
	// the gate is not proving protection, just measuring noise.
	if rep.VictimP95Unprotected <= p95Bound {
		rep.Failf("FIFO comparator victim p95 %.0fms within the protected bound %.0fms (storm too weak)",
			rep.VictimP95Unprotected, p95Bound)
	}
	if rep.VictimShedFIFO < fairShedMax {
		rep.Failf("FIFO comparator victim shed rate %.1f%% under %.0f%% (storm too weak)",
			100*rep.VictimShedFIFO, 100*fairShedMax)
	}
	if rep.DigestsRerun != rep.DigestsProtected {
		rep.Failf("rerun digests diverged: %v vs %v", rep.DigestsRerun, rep.DigestsProtected)
	}
	if rep.DigestsPools != rep.DigestsProtected {
		rep.Failf("pool-size/batching digests diverged: %v vs %v", rep.DigestsPools, rep.DigestsProtected)
	}

	fmt.Fprintf(out, "fairness seed %d: victim p95 solo %.0fms, protected %.0fms (%.2fx), fifo %.0fms (%.2fx) | victim shed protected %.1f%%, fifo %.1f%% | %.1fs wall\n",
		o.seed, rep.VictimP95Solo, rep.VictimP95Protected, ratio(rep.VictimP95Protected, rep.VictimP95Solo),
		rep.VictimP95Unprotected, ratio(rep.VictimP95Unprotected, rep.VictimP95Solo),
		100*rep.VictimShedProtected, 100*rep.VictimShedFIFO, rep.WallSeconds)
	return rep.Finish(out, "fairness", rep, o.jsonPath, fmt.Sprintf("afload -fairness -seed %d", o.seed))
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
