package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"afsysbench/internal/platform"
)

// bitsDigest hashes the exact bit patterns of the values, so a pin on it
// fails on a last-bit change.
func bitsDigest(vals []float64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x", vals) // hex floats: exact to the bit
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRunBatchPinned pins the sequential and pipelined batch timelines bit
// for bit to the values the pre-vtime scheduler produced. The sequential
// clock advances as (start+msa)+inf — adding msa+inf in one step differs
// in the last bit — which is the trap this pin guards.
func TestRunBatchPinned(t *testing.T) {
	s := suite(t)
	names := []string{"2PV7", "7RCE", "1YY9", "promo", "2PV7", "1YY9", "7RCE", "promo"}
	for _, tc := range []struct {
		opts                       BatchOptions
		items                      string
		makespan, cpuBusy, gpuBusy float64
	}{
		{opts: BatchOptions{Threads: 4}, items: "c314cd0fe8ff9a01",
			makespan: 0x1.f65807ed59382p+13, cpuBusy: 0x1.db590ec42aeb8p+13, gpuBusy: 0x1.afef9292e4c8ep+09},
		{opts: BatchOptions{Threads: 4, Pipelined: true, WarmModel: true}, items: "f1ab923de246c8e5",
			makespan: 0x1.dd2bdadc6ed5cp+13, cpuBusy: 0x1.db590ec42aeb8p+13, gpuBusy: 0x1.0ac75674bfeffp+09},
	} {
		res, err := s.RunBatch(names, platform.Server(), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var vals []float64
		for _, it := range res.Items {
			vals = append(vals, it.MSASeconds, it.InferenceSeconds, it.Start, it.Finish)
		}
		if got := bitsDigest(vals); got != tc.items {
			t.Errorf("pipelined=%v items digest = %s, want %s", tc.opts.Pipelined, got, tc.items)
		}
		if res.Makespan != tc.makespan || res.CPUBusy != tc.cpuBusy || res.GPUBusy != tc.gpuBusy {
			t.Errorf("pipelined=%v makespan/cpuBusy/gpuBusy = %x/%x/%x, want %x/%x/%x", tc.opts.Pipelined,
				res.Makespan, res.CPUBusy, res.GPUBusy, tc.makespan, tc.cpuBusy, tc.gpuBusy)
		}
	}
}
