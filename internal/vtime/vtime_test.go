package vtime

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestPlace(t *testing.T) {
	for _, tc := range []struct {
		name       string
		lanes      Lanes
		ready, dur float64
		lane       int
		start, end float64
	}{
		{"tie goes to the lowest lane", Lanes{5, 3, 3}, 0, 2, 1, 3, 5},
		{"all idle", Lanes{0, 0}, 0, 4, 0, 0, 4},
		{"release floors the start", Lanes{1, 2}, 7, 1.5, 0, 7, 8.5},
		{"release equal to free", Lanes{4}, 4, 1, 0, 4, 5},
		{"zero-duration stage holds no lane time", Lanes{6, 2}, 0, 0, 1, 2, 2},
	} {
		lane, start, end := tc.lanes.Place(tc.ready, tc.dur)
		if lane != tc.lane || start != tc.start || end != tc.end {
			t.Errorf("%s: Place = (%d, %v, %v), want (%d, %v, %v)", tc.name, lane, start, end, tc.lane, tc.start, tc.end)
		}
		if tc.lanes[lane] != end {
			t.Errorf("%s: lane %d free at %v, want %v", tc.name, lane, tc.lanes[lane], end)
		}
	}
}

func TestTwoStage(t *testing.T) {
	// Two CPU lanes, one GPU lane. Job 1 is a cache hit (zero CPU time):
	// it finishes its CPU stage at 0, so the GPU takes it first. Jobs 0
	// and 2 both finish their CPU stage at 4; slice order breaks the tie.
	jobs := []Job{{CPU: 4, GPU: 1}, {CPU: 0, GPU: 2}, {CPU: 4, GPU: 1}}
	placed, order := TwoStage(jobs, 2, 1)
	want := []Placement{
		{CPULane: 0, CPUStart: 0, CPUEnd: 4, GPULane: 0, GPUStart: 4, GPUEnd: 5},
		{CPULane: 1, CPUStart: 0, CPUEnd: 0, GPULane: 0, GPUStart: 0, GPUEnd: 2},
		{CPULane: 1, CPUStart: 0, CPUEnd: 4, GPULane: 0, GPUStart: 5, GPUEnd: 6},
	}
	if !reflect.DeepEqual(placed, want) {
		t.Errorf("placements = %+v, want %+v", placed, want)
	}
	if !reflect.DeepEqual(order, []int{1, 0, 2}) {
		t.Errorf("gpuOrder = %v, want [1 0 2]", order)
	}

	// A release later than the lane's free time floors the CPU start.
	placed, _ = TwoStage([]Job{{Release: 3, CPU: 1, GPU: 1}, {Release: 1, CPU: 1, GPU: 1}}, 1, 1)
	if placed[0].CPUStart != 3 || placed[1].CPUStart != 4 || placed[1].GPUStart != 5 {
		t.Errorf("release floor: %+v", placed)
	}

	// 1×1 lanes, all released at zero: CPU ends are the running sum, and
	// the GPU never reorders.
	jobs = []Job{{CPU: 0.1, GPU: 0.7}, {CPU: 0.2, GPU: 0.05}, {CPU: 0.3, GPU: 0.05}}
	placed, order = TwoStage(jobs, 1, 1)
	var sum float64
	for i, j := range jobs {
		sum += j.CPU
		if placed[i].CPUEnd != sum {
			t.Errorf("1x1 job %d CPU end = %v, want running sum %v", i, placed[i].CPUEnd, sum)
		}
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Errorf("1x1 gpuOrder = %v", order)
	}

	if placed, order = TwoStage(nil, 2, 2); len(placed) != 0 || len(order) != 0 {
		t.Errorf("empty trace: %v %v", placed, order)
	}
}

// naiveTwoStage is the deliberately plain reference: explicit lane scans,
// the GPU order found by repeated selection instead of a sort.
func naiveTwoStage(jobs []Job, cpuLanes, gpuLanes int) ([]Placement, []int) {
	earliest := func(free []float64) int {
		best := 0
		for i := 1; i < len(free); i++ {
			if free[i] < free[best] {
				best = i
			}
		}
		return best
	}
	out := make([]Placement, len(jobs))
	cpu := make([]float64, cpuLanes)
	for i, j := range jobs {
		w := earliest(cpu)
		start := cpu[w]
		if j.Release > start {
			start = j.Release
		}
		cpu[w] = start + j.CPU
		out[i].CPULane, out[i].CPUStart, out[i].CPUEnd = w, start, start+j.CPU
	}
	var order []int
	taken := make([]bool, len(jobs))
	for range jobs {
		next := -1
		for i := range jobs {
			if !taken[i] && (next < 0 || out[i].CPUEnd < out[next].CPUEnd) {
				next = i
			}
		}
		taken[next] = true
		order = append(order, next)
	}
	gpu := make([]float64, gpuLanes)
	for _, i := range order {
		g := earliest(gpu)
		start := gpu[g]
		if out[i].CPUEnd > start {
			start = out[i].CPUEnd
		}
		gpu[g] = start + jobs[i].GPU
		out[i].GPULane, out[i].GPUStart, out[i].GPUEnd = g, start, start+jobs[i].GPU
	}
	return out, order
}

// TestTwoStageMatchesNaive compares == on every float, lane and the GPU
// order over seeded random traces with many exact ties (zero stages,
// repeated durations, shared releases).
func TestTwoStageMatchesNaive(t *testing.T) {
	rnd := rand.New(rand.NewSource(0xAF3))
	durs := []float64{0, 0, 0.1, 0.25, 1, 3.5, 7, 7}
	for trial := 0; trial < 2000; trial++ {
		jobs := make([]Job, rnd.Intn(24))
		for i := range jobs {
			jobs[i] = Job{CPU: durs[rnd.Intn(len(durs))], GPU: durs[rnd.Intn(len(durs))]}
			switch rnd.Intn(3) {
			case 0:
				jobs[i].Release = float64(rnd.Intn(6))
			case 1:
				jobs[i].Release = rnd.Float64() * 20
				jobs[i].CPU *= rnd.Float64()
			}
		}
		cpuLanes, gpuLanes := 1+rnd.Intn(5), 1+rnd.Intn(3)
		got, gotOrder := TwoStage(jobs, cpuLanes, gpuLanes)
		want, wantOrder := naiveTwoStage(jobs, cpuLanes, gpuLanes)
		if len(jobs) > 0 && (!reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotOrder, wantOrder)) {
			t.Fatalf("trial %d (%d jobs, %dx%d lanes):\n got  %+v %v\n want %+v %v",
				trial, len(jobs), cpuLanes, gpuLanes, got, gotOrder, want, wantOrder)
		}
	}
}
