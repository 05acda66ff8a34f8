package serve

import (
	"fmt"
	"hash/fnv"
	"testing"

	"afsysbench/internal/cache"
	"afsysbench/internal/qos"
)

// bitsDigest hashes the exact bit patterns of the values: a pin on it
// fails on a last-bit change, which is what the modeled clock's bitwise
// contract forbids.
func bitsDigest(vals []float64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x", vals) // hex floats: exact to the bit
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestModeledSchedulePinned pins every field of the modeled schedule of a
// fixed trace, bit for bit, to the values the pre-vtime scheduler
// produced. The trace mixes fresh searches with full cache hits (zero
// CPU-stage time, so lane ties and equal MSA completions occur) and is
// replayed on two lane shapes. CPUBusy, GPUBusy and Makespan are pinned on
// their own because they are sums in three different orders.
func TestModeledSchedulePinned(t *testing.T) {
	s := newTestServer(t, Config{Threads: 4, MSAWorkers: 1, GPUWorkers: 1, Cache: cache.New(0)})
	statuses := runTrace(t, s, []string{"7RCE", "promo", "2PV7", "1YY9", "2PV7", "7RCE", "promo", "1YY9", "2PV7", "7RCE"})
	for _, st := range statuses {
		if st.State != "done" {
			t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
	}
	for _, tc := range []struct {
		cpu, gpu                   int
		items                      string
		makespan, cpuBusy, gpuBusy float64
		cpuLanes, gpuLanes         string
	}{
		{cpu: 2, gpu: 1, items: "74237e2cf9e6a799", makespan: 0x1.7b97a74c1e3dcp+12, cpuBusy: 0x1.e2c8ab9ebde86p+12, gpuBusy: 0x1.8a3c3e229afap+08,
			cpuLanes: "[0 1 0 0 0 0 0 0 0 0]", gpuLanes: "[0 0 0 0 0 0 0 0 0 0]"},
		{cpu: 3, gpu: 2, items: "1803a01c98cc578c", makespan: 0x1.7b97a74c1e3dcp+12, cpuBusy: 0x1.e2c8ab9ebde86p+12, gpuBusy: 0x1.8a3c3e229afa1p+08,
			cpuLanes: "[0 1 2 0 2 2 2 2 2 2]", gpuLanes: "[0 0 1 1 0 0 1 0 1 0]"},
	} {
		sched := s.ModeledSchedule(tc.cpu, tc.gpu)
		var vals []float64
		var cpuLanes, gpuLanes []int
		for _, it := range sched.Items {
			vals = append(vals, it.MSAStart, it.MSAEnd, it.InfStart, it.InfEnd)
			cpuLanes = append(cpuLanes, it.CPUWorker)
			gpuLanes = append(gpuLanes, it.GPUWorker)
		}
		if got := bitsDigest(vals); got != tc.items {
			t.Errorf("%dx%d item times digest = %s, want %s", tc.cpu, tc.gpu, got, tc.items)
		}
		if got := fmt.Sprint(cpuLanes); got != tc.cpuLanes {
			t.Errorf("%dx%d CPU lanes = %s, want %s", tc.cpu, tc.gpu, got, tc.cpuLanes)
		}
		if got := fmt.Sprint(gpuLanes); got != tc.gpuLanes {
			t.Errorf("%dx%d GPU lanes = %s, want %s", tc.cpu, tc.gpu, got, tc.gpuLanes)
		}
		if sched.Makespan != tc.makespan || sched.CPUBusy != tc.cpuBusy || sched.GPUBusy != tc.gpuBusy {
			t.Errorf("%dx%d makespan/cpuBusy/gpuBusy = %x/%x/%x, want %x/%x/%x", tc.cpu, tc.gpu,
				sched.Makespan, sched.CPUBusy, sched.GPUBusy, tc.makespan, tc.cpuBusy, tc.gpuBusy)
		}
	}
}

// TestFairnessReportPinned pins the per-tenant modeled latency rows of a
// two-tenant QoS trace whose samples differ enough in size that
// MSA-completion order leaves WFQ dispatch order. The mean is a sum in
// GPU-dispatch order: on the 3x2 replay it moves in the last bit if the
// latencies are handed back in any other order.
func TestFairnessReportPinned(t *testing.T) {
	samples := []string{"1YY9", "2PV7", "promo", "7RCE", "2PV7"}
	var events []qosTestEvent
	for i := 0; i < 12; i++ {
		events = append(events, qosTestEvent{"inter", samples[i%len(samples)], float64(i) * 40})
		events = append(events, qosTestEvent{"bulk", samples[(i+2)%len(samples)], float64(i) * 15})
	}
	qcfg := qos.Config{Tenants: map[string]qos.TenantConfig{"inter": {Weight: 4}, "bulk": {Weight: 1}}}
	s := runQoSTrace(t, qcfg, Config{Threads: 4, MSAWorkers: 2, GPUWorkers: 1}, events)
	for _, tc := range []struct {
		cpu, gpu    int
		bulk, inter string
	}{
		{cpu: 4, gpu: 2, bulk: "cf624dfd3beae2cf", inter: "846b27775a9d5a5d"},
		{cpu: 3, gpu: 2, bulk: "2fa5df958a8de680", inter: "0d39e4c4459f2f30"},
	} {
		rep := s.FairnessReport(tc.cpu, tc.gpu)
		want := map[string]string{"bulk": tc.bulk, "inter": tc.inter}
		if len(rep.Latencies) != len(want) {
			t.Fatalf("%dx%d latency rows = %d, want %d", tc.cpu, tc.gpu, len(rep.Latencies), len(want))
		}
		for _, row := range rep.Latencies {
			l := row.Latency
			got := bitsDigest([]float64{l.MeanMs, l.P50Ms, l.P95Ms, l.P99Ms, l.MaxMs})
			if row.Completed != 12 || got != want[row.Tenant] {
				t.Errorf("%dx%d tenant %s: completed %d digest %s (mean %x), want 12 %s",
					tc.cpu, tc.gpu, row.Tenant, row.Completed, got, l.MeanMs, want[row.Tenant])
			}
		}
	}
}
