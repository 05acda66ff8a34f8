package serve

import "afsysbench/internal/vtime"

// The modeled schedule replays the completed request trace on a virtual
// clock: W CPU workers execute the charged MSA seconds of each request
// (zero on a cache hit) and G GPU workers execute the modeled inference
// seconds, with every request's inference eligible the moment its MSA
// finishes. It is the serving analogue of the paper's phase accounting —
// the single-run pipeline shows MSA dominating wall time (Figure 7); the
// schedule shows what phase-split pipelining and caching recover of it at
// deployment scale. Being post-hoc and deterministic, it also gives
// benchmarks a wall-clock-independent makespan to compare configurations
// on.

// ScheduleItem is one request's placement in the modeled schedule. Times
// are virtual seconds from the start of the trace.
type ScheduleItem struct {
	ID        string  `json:"id"`
	Sample    string  `json:"sample"`
	CacheHit  bool    `json:"cache_hit"`
	CPUWorker int     `json:"cpu_worker"`
	GPUWorker int     `json:"gpu_worker"`
	MSAStart  float64 `json:"msa_start"`
	MSAEnd    float64 `json:"msa_end"`
	InfStart  float64 `json:"inf_start"`
	InfEnd    float64 `json:"inf_end"`
}

// Schedule is the modeled execution of a completed trace.
type Schedule struct {
	CPUWorkers int            `json:"cpu_workers"`
	GPUWorkers int            `json:"gpu_workers"`
	Items      []ScheduleItem `json:"items"`
	// Makespan is the virtual end of the last inference; CPUBusy and
	// GPUBusy are the summed stage seconds actually charged.
	Makespan float64 `json:"makespan_seconds"`
	CPUBusy  float64 `json:"cpu_busy_seconds"`
	GPUBusy  float64 `json:"gpu_busy_seconds"`
}

// ModeledSchedule replays the server's completed jobs (submit order) on a
// virtual clock with cpuWorkers MSA lanes and gpuWorkers inference lanes.
// Stage durations are the modeled seconds each request was charged — a
// cache hit charges zero MSA seconds, which is exactly how a hit buys
// throughput. Failed or in-flight jobs are excluded. The replay is
// vtime.TwoStage with every job released at zero: each MSA goes to the
// earliest-free CPU lane in submit order; each inference goes to the
// earliest-free GPU lane in order of MSA completion (submit order breaks
// ties), never before its own MSA ends.
func (s *Server) ModeledSchedule(cpuWorkers, gpuWorkers int) Schedule {
	cpuWorkers, gpuWorkers = max(cpuWorkers, 1), max(gpuWorkers, 1)
	sched := Schedule{CPUWorkers: cpuWorkers, GPUWorkers: gpuWorkers}
	s.mu.Lock()
	rows := s.completedLocked()
	s.mu.Unlock()
	var jobs []vtime.Job
	for _, row := range rows {
		sched.Items = append(sched.Items, ScheduleItem{ID: row.id, Sample: row.in.Name, CacheHit: row.cacheHit})
		// Charged inference seconds: the canonical total unbatched, the
		// amortized batch share when the request rode a batched dispatch —
		// so batching's fixed-cost amortization shows up in the modeled
		// makespan exactly once per batch.
		jobs = append(jobs, vtime.Job{CPU: row.msaSeconds, GPU: row.infSeconds})
		sched.CPUBusy += row.msaSeconds
	}

	placed, gpuOrder := vtime.TwoStage(jobs, cpuWorkers, gpuWorkers)
	for i, p := range placed {
		it := &sched.Items[i]
		it.CPUWorker, it.MSAStart, it.MSAEnd = p.CPULane, p.CPUStart, p.CPUEnd
		it.GPUWorker, it.InfStart, it.InfEnd = p.GPULane, p.GPUStart, p.GPUEnd
	}
	// GPUBusy is summed in GPU-dispatch order (CPUBusy above in submit
	// order): the bitwise contract on both predates the shared scheduler.
	for _, i := range gpuOrder {
		sched.GPUBusy += jobs[i].GPU
		if end := placed[i].GPUEnd; end > sched.Makespan {
			sched.Makespan = end
		}
	}
	return sched
}

// SerialMakespan returns the modeled makespan of the same completed trace
// run the stock way: one request at a time, MSA then inference, no
// overlap — the paper's one-container-per-request deployment. The ratio
// against ModeledSchedule(...).Makespan is the phase-split speedup.
func (s *Server) SerialMakespan() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total float64
	for _, row := range s.completedLocked() {
		total += row.serialSeconds
	}
	return total
}
