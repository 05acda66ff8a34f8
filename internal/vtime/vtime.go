// Package vtime is the repo's one modeled clock: greedy list scheduling of
// stage durations onto lanes, in virtual seconds. Every modeled makespan
// and latency — core.RunBatch, serve.ModeledSchedule, the QoS fairness
// report's per-tenant latencies, cluster's scaling curve — comes out of
// the two functions here, so the paper's phase split (Figure 7) replayed
// as a ParaFold-style two-stage CPU/GPU pipeline is computed one way and a
// model change lands everywhere at once.
//
// The functions are pure and deterministic: placement depends only on the
// argument order, ties go to the lowest lane index, and every float is
// produced by the same operations in the same order on every call — the
// callers' bitwise contracts (DESIGN §5) rest on that.
package vtime

import "sort"

// Lanes holds, per lane, the time it next falls free. make(Lanes, n) is n
// idle lanes at time zero.
type Lanes []float64

// Place runs a stage of dur seconds that cannot start before ready on the
// earliest-free lane (lowest index on ties) and returns the lane and the
// stage's span: start = max(free, ready), end = start + dur.
func (l Lanes) Place(ready, dur float64) (lane int, start, end float64) {
	for i, free := range l {
		if free < l[lane] {
			lane = i
		}
	}
	start = l[lane]
	if ready > start {
		start = ready
	}
	end = start + dur
	l[lane] = end
	return lane, start, end
}

// Job is one request of a two-stage pipeline: it is released at Release,
// occupies a CPU lane for CPU seconds, then a GPU lane for GPU seconds.
type Job struct {
	Release, CPU, GPU float64
}

// Placement is where TwoStage put one job.
type Placement struct {
	CPULane, GPULane int
	CPUStart, CPUEnd float64
	GPUStart, GPUEnd float64
}

// TwoStage list-schedules jobs on cpuLanes CPU lanes and gpuLanes GPU
// lanes. CPU stages are placed in slice order, none before its release;
// GPU stages are placed in order of CPU completion (slice order breaks
// ties), none before its own CPU stage ends. It returns one placement per
// job, in slice order, and gpuOrder, the job indices in the order the GPU
// stages were dispatched. Callers that sum GPU-side quantities (busy
// seconds, latencies) must walk gpuOrder: float addition is
// order-sensitive, and re-deriving the order is how copies of this model
// drifted apart before there was one.
func TwoStage(jobs []Job, cpuLanes, gpuLanes int) (placements []Placement, gpuOrder []int) {
	placements = make([]Placement, len(jobs))
	cpu := make(Lanes, cpuLanes)
	for i, j := range jobs {
		p := &placements[i]
		p.CPULane, p.CPUStart, p.CPUEnd = cpu.Place(j.Release, j.CPU)
	}
	gpuOrder = make([]int, len(jobs))
	for i := range gpuOrder {
		gpuOrder[i] = i
	}
	sort.SliceStable(gpuOrder, func(a, b int) bool {
		return placements[gpuOrder[a]].CPUEnd < placements[gpuOrder[b]].CPUEnd
	})
	gpu := make(Lanes, gpuLanes)
	for _, i := range gpuOrder {
		p := &placements[i]
		p.GPULane, p.GPUStart, p.GPUEnd = gpu.Place(p.CPUEnd, jobs[i].GPU)
	}
	return placements, gpuOrder
}
