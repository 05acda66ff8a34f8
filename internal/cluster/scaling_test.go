package cluster

import (
	"testing"
)

func syntheticPoints() []RequestPoint {
	// Shapes from a typical measured trace: MSA-dominated requests with a
	// tiny serial fraction (the scan is ~1e13 scaled parallel instructions
	// against ~1e6 of serial merge/assembly work).
	return []RequestPoint{
		{Sample: "2PV7", MSASeconds: 900, InferenceSeconds: 40, SerialFraction: 2e-6},
		{Sample: "1YY9", MSASeconds: 1400, InferenceSeconds: 70, SerialFraction: 1e-6},
		{Sample: "6QNR", MSASeconds: 2100, InferenceSeconds: 260, SerialFraction: 3e-6},
	}
}

func TestScalingCurveEfficiencyGate(t *testing.T) {
	np := NetProfile{ScansPerRequest: 10, BytesPerScan: 64 << 10}
	curve := BuildScalingCurve(syntheticPoints(), []int{1, 2, 4, 8, 16}, []int{1, 2, 4}, 120, "fp", np, DefaultNet(), 4, 2)
	if got, want := len(curve.Points), 15; got != want {
		t.Fatalf("points = %d, want %d", got, want)
	}
	eff := curve.ShardEfficiencyAt(16)
	if eff < 0.8 {
		t.Errorf("shard efficiency at 16 = %.3f, want ≥ 0.8 (the near-linear acceptance gate)", eff)
	}
	if one := curve.ShardEfficiencyAt(1); one < 0.999 || one > 1.001 {
		t.Errorf("shard efficiency at 1 = %.3f, want 1.0", one)
	}
}

func TestScalingMonotonicity(t *testing.T) {
	np := NetProfile{ScansPerRequest: 10, BytesPerScan: 64 << 10}
	curve := BuildScalingCurve(syntheticPoints(), []int{1, 2, 4, 8, 16}, []int{1, 2, 4}, 120, "fp", np, DefaultNet(), 4, 2)
	byCell := make(map[[2]int]ScalingPoint)
	for _, p := range curve.Points {
		byCell[[2]int{p.Shards, p.Replicas}] = p
	}
	// More shards → per-request MSA time never grows.
	prev := -1.0
	for _, n := range []int{16, 8, 4, 2, 1} {
		p := byCell[[2]int{n, 1}]
		if prev >= 0 && p.MSASecondsPerRequest < prev {
			t.Errorf("MSA seconds at %d shards (%.1f) below %.1f at more shards", n, p.MSASecondsPerRequest, prev)
		}
		prev = p.MSASecondsPerRequest
	}
	// More replicas → throughput never drops (at fixed shards).
	for _, n := range []int{1, 16} {
		last := 0.0
		for _, r := range []int{1, 2, 4} {
			p := byCell[[2]int{n, r}]
			if p.ThroughputRPS < last {
				t.Errorf("throughput dropped at shards=%d replicas=%d: %.4f < %.4f", n, r, p.ThroughputRPS, last)
			}
			last = p.ThroughputRPS
		}
	}
	// Amdahl sanity: a heavily serial workload must NOT report near-linear
	// scaling — the model has to punish what sharding cannot help.
	serial := []RequestPoint{{Sample: "s", MSASeconds: 1000, InferenceSeconds: 10, SerialFraction: 0.5}}
	sc := BuildScalingCurve(serial, []int{1, 16}, []int{1}, 120, "fp", np, DefaultNet(), 4, 2)
	if eff := sc.ShardEfficiencyAt(16); eff > 0.15 {
		t.Errorf("50%%-serial workload reports shard efficiency %.3f at 16 shards; the Amdahl term is broken", eff)
	}
}

func TestNetProfileFromStats(t *testing.T) {
	st := Stats{Scans: 40, NetBytes: 40 * 1000, NetOps: 40}
	np := NetProfileFromStats(st, 4)
	if np.ScansPerRequest != 10 {
		t.Errorf("ScansPerRequest = %v, want 10", np.ScansPerRequest)
	}
	if np.BytesPerScan != 1000 {
		t.Errorf("BytesPerScan = %v, want 1000", np.BytesPerScan)
	}
	zero := NetProfileFromStats(Stats{}, 0)
	if zero.ScansPerRequest != 0 || zero.BytesPerScan != 0 {
		t.Errorf("zero stats: %+v", zero)
	}
}

// TestScalingCurvePinned pins the modeled makespan of every cell of one
// sweep bit for bit. The trace repeats the synthetic points out of size
// order so lanes fill unevenly and the GPU stage queues.
func TestScalingCurvePinned(t *testing.T) {
	pts := syntheticPoints()
	var trace []RequestPoint
	for _, i := range []int{2, 0, 1, 1, 0, 2, 0, 0, 1, 2, 2, 1, 0} {
		trace = append(trace, pts[i])
	}
	np := NetProfile{ScansPerRequest: 10, BytesPerScan: 64 << 10}
	curve := BuildScalingCurve(trace, []int{1, 2, 4, 8, 16}, []int{1, 2, 4}, 120, "fp", np, DefaultNet(), 2, 1)
	want := []float64{
		0x1.30601fd596ae3p+13, 0x1.3c402461d0c72p+12, 0x1.97802461d0c72p+11,
		0x1.31a06a5406bd5p+12, 0x1.4c8078c1ddb08p+11, 0x1.b8008b30753dcp+10,
		0x1.4140e23264ac2p+11, 0x1.6d0121b7a7686p+10, 0x1.f90159036e104p+09,
		0x1.b3a07ef18d209p+10, 0x1.f2c16f480c5e3p+09, 0x1.48c0ee41e781p+09,
		0x1.9500853e8a71p+10, 0x1.a5ab1f4bd8ffcp+09, 0x1.0e0080dced8fap+09,
	}
	if len(curve.Points) != len(want) {
		t.Fatalf("points = %d, want %d", len(curve.Points), len(want))
	}
	for i, p := range curve.Points {
		if p.ModeledMakespan != want[i] {
			t.Errorf("shards=%d replicas=%d makespan = %x, want %x", p.Shards, p.Replicas, p.ModeledMakespan, want[i])
		}
	}
}
