package serve

// Multi-tenant QoS (DESIGN §15). With Config.QoS set, admission and MSA
// scheduling become tenant-aware: every request carries a tenant ID and a
// modeled arrival time, the qos.Controller decides admit/shed/degrade on
// its virtual clock, and the MSA queue's single shared sub-queue gives way
// to per-tenant sub-queues drained by deficit round-robin over chain-token
// costs. The brownout ladder threads into the existing degradation
// machinery: an over-quota request is first only recorded as degraded (the
// early-warning rung), then batches alone (no shared-batch inflation), then
// runs with a tightened MSA budget that engages the PR 2 drop-DB ladder, and
// finally is shed outright.
//
// Determinism: the controller never reads live pool state, the WFQ
// allocates dispatch sequence numbers under its own lock, and an
// open-loop trace (all submits before Start) pops in an order that is a
// pure function of the push history — so the admit/shed/degrade sequence
// and the dispatch order are bitwise reproducible at any pool size, which
// is exactly what the fairness gate pins.

import (
	"sort"
	"strings"

	"afsysbench/internal/qos"
	"afsysbench/internal/vtime"
)

// qosEnabled reports whether the server runs tenant-aware admission.
func (s *Server) qosEnabled() bool { return s.cfg.QoS != nil }

// qosReasonCounter turns a shed-reason class into its metrics-counter
// suffix ("rate-limited" -> "requests_shed_rate_limited").
func qosReasonCounter(reason string) string {
	return "requests_shed_" + strings.ReplaceAll(reason, "-", "_")
}

// TenantLatency is one tenant's modeled latency row in the fairness
// report: percentiles of (modeled completion - modeled arrival) over the
// tenant's completed requests, on the arrival-aware modeled schedule.
type TenantLatency struct {
	Tenant    string      `json:"tenant"`
	Completed int         `json:"completed"`
	Latency   Percentiles `json:"latency_modeled_ms"`
}

// FairnessReport is the per-tenant QoS outcome of a completed trace: the
// controller's admission accounting, the modeled per-tenant latency
// distribution, and the decision/dispatch digests two runs of the same
// trace must reproduce bit-for-bit.
type FairnessReport struct {
	// FIFO marks the unprotected comparator run (Config.FIFO on the
	// controller): no buckets, no weights, no brownout.
	FIFO bool `json:"fifo,omitempty"`
	// Tenants is the controller's per-tenant accounting, sorted by name.
	Tenants []qos.TenantStats `json:"tenants"`
	// Latencies is the modeled per-tenant latency table (same order).
	Latencies []TenantLatency `json:"latencies"`
	// Overall summarizes the same modeled latencies over every completed
	// request, all tenants pooled — the headline row of an open-loop pass.
	Overall Percentiles `json:"overall_modeled_ms"`
	// DecisionDigest hashes the admission sequence (tenant, cost, admit,
	// reason, level); DispatchDigest the WFQ pop sequence. Identical
	// traces and seeds must reproduce both at any pool size.
	DecisionDigest string `json:"decision_digest"`
	DispatchDigest string `json:"dispatch_digest"`
	// ModeledCPULanes/ModeledGPULanes are the virtual lane counts the
	// latency model replayed on (fixed inputs, independent of the real
	// pool sizes).
	ModeledCPULanes int `json:"modeled_cpu_lanes"`
	ModeledGPULanes int `json:"modeled_gpu_lanes"`
}

// TenantRow returns the latency row for one tenant (zero row if absent).
func (r *FairnessReport) TenantRow(tenant string) TenantLatency {
	for _, row := range r.Latencies {
		if row.Tenant == tenant {
			return row
		}
	}
	return TenantLatency{Tenant: tenant}
}

// Stats returns the controller accounting row for one tenant.
func (r *FairnessReport) Stats(tenant string) qos.TenantStats {
	for _, row := range r.Tenants {
		if row.Tenant == tenant {
			return row
		}
	}
	return qos.TenantStats{Tenant: tenant}
}

// FairnessReport builds the per-tenant QoS report over the completed
// trace, replaying it on cpuLanes/gpuLanes modeled lanes (defaults 4/2
// when <= 0). Returns nil when QoS is disabled.
func (s *Server) FairnessReport(cpuLanes, gpuLanes int) *FairnessReport {
	if !s.qosEnabled() {
		return nil
	}
	if cpuLanes <= 0 {
		cpuLanes = 4
	}
	if gpuLanes <= 0 {
		gpuLanes = 2
	}
	rep := &FairnessReport{
		FIFO:            s.cfg.QoS.Config().FIFO,
		Tenants:         s.cfg.QoS.Snapshot(),
		DecisionDigest:  s.cfg.QoS.DecisionDigest(),
		DispatchDigest:  s.cfg.QoS.DispatchDigest(),
		ModeledCPULanes: cpuLanes,
		ModeledGPULanes: gpuLanes,
	}
	byTenant := s.modeledTenantLatencies(cpuLanes, gpuLanes)
	names := make([]string, 0, len(byTenant))
	for name := range byTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	var all []float64
	for _, name := range names {
		ms := byTenant[name]
		rep.Latencies = append(rep.Latencies, TenantLatency{
			Tenant:    name,
			Completed: len(ms),
			Latency:   Summarize(ms),
		})
		all = append(all, ms...)
	}
	rep.Overall = Summarize(all)
	return rep
}

// modeledTenantLatencies replays the completed QoS trace on the modeled
// clock (vtime.TwoStage): WFQ dispatch order fills cpuLanes MSA lanes (a
// request's MSA cannot start before its modeled arrival), MSA-completion
// order fills gpuLanes inference lanes, and a request's modeled latency is
// its inference end minus its arrival — queueing delay included, wall
// clock excluded. Milliseconds, grouped by tenant, each tenant's list in
// GPU-dispatch order (its mean is a sum in that order).
func (s *Server) modeledTenantLatencies(cpuLanes, gpuLanes int) map[string][]float64 {
	s.mu.Lock()
	var done []*Job
	for _, job := range s.order {
		if job.state == StateDone && job.result != nil {
			done = append(done, job)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].dispatchSeq < done[b].dispatchSeq })
	jobs := make([]vtime.Job, len(done))
	tenants := make([]string, len(done))
	for i, job := range done {
		jobs[i] = vtime.Job{Release: job.arrival, CPU: job.chargedMSASeconds, GPU: job.chargedInfSeconds}
		tenants[i] = job.tenant
	}
	s.mu.Unlock()
	placed, gpuOrder := vtime.TwoStage(jobs, cpuLanes, gpuLanes)
	out := make(map[string][]float64)
	for _, i := range gpuOrder {
		out[tenants[i]] = append(out[tenants[i]], (placed[i].GPUEnd-jobs[i].Release)*1000)
	}
	return out
}
