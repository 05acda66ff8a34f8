package simgpu

import (
	"testing"

	"afsysbench/internal/platform"
)

// moduleSeconds sums layer times per module name.
func moduleSeconds(layers []LayerTime) map[string]float64 {
	out := make(map[string]float64)
	for _, l := range layers {
		out[l.Module] += l.Seconds
	}
	return out
}

// overheadFraction is the non-compute share of a run: the quantity the
// paper reports exceeding 75% for small inputs on the server.
func overheadFraction(p PhaseBreakdown) float64 {
	t := p.Total()
	return (t - p.ComputeSeconds) / t
}

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultModel()
	bad.Recycles = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero recycles accepted")
	}
}

func TestMemoryFootprintPaperBoundaries(t *testing.T) {
	m := DefaultModel()
	rtx := platform.Desktop().GPU.MemBytes
	// Paper Section III-B: 1YY9 (881) fits on the RTX 4080, 6QNR (1395)
	// needs unified memory.
	if m.MemoryFootprintBytes(881) > rtx {
		t.Error("1YY9 must fit in 16 GB")
	}
	if m.MemoryFootprintBytes(1395) <= rtx {
		t.Error("6QNR must exceed 16 GB")
	}
	if m.MemoryFootprintBytes(1395) > platform.Server().GPU.MemBytes {
		t.Error("6QNR must fit on the H100")
	}
}

func TestInferenceSpillOnlyOnDesktop(t *testing.T) {
	m := DefaultModel()
	d, err := Inference(platform.Desktop(), m, 1395, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Inference(platform.Server(), m, 1395, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Spilled {
		t.Error("6QNR on desktop must spill to unified memory")
	}
	if s.Spilled {
		t.Error("6QNR on server must not spill")
	}
}

func TestFigure8ServerOverheadDominatesSmallInputs(t *testing.T) {
	m := DefaultModel()
	pb, err := Inference(platform.Server(), m, 484, InferenceOptions{Threads: 1, CompileSeconds: 35})
	if err != nil {
		t.Fatal(err)
	}
	if f := overheadFraction(pb); f < 0.70 {
		t.Errorf("server 2PV7 overhead fraction = %.2f, paper reports >0.75", f)
	}
}

func TestFigure8DesktopComputeDominates(t *testing.T) {
	m := DefaultModel()
	pb, err := Inference(platform.Desktop(), m, 484, InferenceOptions{Threads: 1, CompileSeconds: 12})
	if err != nil {
		t.Fatal(err)
	}
	if pb.ComputeSeconds < pb.InitSeconds+pb.CompileSeconds {
		t.Errorf("desktop compute (%.1f) must dominate overheads (%.1f)",
			pb.ComputeSeconds, pb.InitSeconds+pb.CompileSeconds)
	}
	// Paper: 2PV7 on desktop ≈ 71 s GPU compute, ~100 s total.
	if pb.ComputeSeconds < 40 || pb.ComputeSeconds > 110 {
		t.Errorf("desktop 2PV7 compute = %.1fs, want ~71s", pb.ComputeSeconds)
	}
	// Larger inputs push the compute share toward the paper's 83%.
	big, _ := Inference(platform.Desktop(), m, 857, InferenceOptions{Threads: 1, CompileSeconds: 12})
	if share := big.ComputeSeconds / big.Total(); share < 0.75 {
		t.Errorf("desktop promo compute share = %.2f, want >= 0.75", share)
	}
}

func TestThreadsDoNotHelpInference(t *testing.T) {
	// Figure 6: inference shows no gain (slight degradation) from threads.
	m := DefaultModel()
	t1, _ := Inference(platform.Server(), m, 484, InferenceOptions{Threads: 1})
	t6, _ := Inference(platform.Server(), m, 484, InferenceOptions{Threads: 6})
	if t6.Total() < t1.Total() {
		t.Errorf("6 threads faster than 1: %v vs %v", t6.Total(), t1.Total())
	}
	if t6.Total() > t1.Total()*1.25 {
		t.Errorf("degradation too steep: %v vs %v", t6.Total(), t1.Total())
	}
}

func TestWarmStartSkipsOverheads(t *testing.T) {
	m := DefaultModel()
	cold, _ := Inference(platform.Server(), m, 484, InferenceOptions{})
	warm, _ := Inference(platform.Server(), m, 484, InferenceOptions{WarmStart: true})
	if warm.InitSeconds != 0 || warm.CompileSeconds != 0 {
		t.Error("warm start must skip init and compile")
	}
	if warm.Total() >= cold.Total() {
		t.Error("warm start must be faster")
	}
}

func TestLayerTimesTableVIShape(t *testing.T) {
	m := DefaultModel()
	mach := platform.Server()
	get := func(n int) (pf, df, triAttn, triMult, global float64) {
		mods := moduleSeconds(m.LayerTimes(mach, n, false))
		pf, df = mods["Pairformer"], mods["Diffusion"]
		for _, l := range m.LayerTimes(mach, n, false) {
			switch l.Layer {
			case "triangle attention":
				triAttn = l.Seconds
			case "triangle mult. update":
				triMult = l.Seconds
			case "global attention":
				global = l.Seconds
			}
		}
		return
	}
	pf484, df484, ta484, tm484, g484 := get(484)
	pf857, df857, ta857, tm857, _ := get(857)

	// Diffusion dominates Pairformer at both lengths, with the ratio
	// shrinking as the cubic Pairformer terms grow (Table VI: 5.06 -> 2.77).
	r484, r857 := df484/pf484, df857/pf857
	if r484 < 2 {
		t.Errorf("diffusion/pairformer at 484 = %.2f, want > 2", r484)
	}
	if r857 >= r484 {
		t.Errorf("ratio must shrink with N: %.2f -> %.2f", r484, r857)
	}
	// Triangle attention ≈ 2x multiplicative update (Table VI).
	if ratio := ta484 / tm484; ratio < 1.5 || ratio > 3.5 {
		t.Errorf("attn/mult at 484 = %.2f, want ~2", ratio)
	}
	if ratio := ta857 / tm857; ratio < 1.5 || ratio > 3.5 {
		t.Errorf("attn/mult at 857 = %.2f, want ~2.6", ratio)
	}
	// Pairformer grows superlinearly: 857/484 runtime ratio > length ratio.
	if growth := pf857 / pf484; growth < 2.5 {
		t.Errorf("pairformer growth = %.2f, want > 2.5 (paper: >3x)", growth)
	}
	// Global attention is the largest diffusion layer.
	if g484 < 0.5*df484 {
		t.Errorf("global attention = %.1fs of %.1fs diffusion, want dominant", g484, df484)
	}
}

func TestSpillMultipliesCompute(t *testing.T) {
	m := DefaultModel()
	mach := platform.Desktop()
	normal := moduleSeconds(m.LayerTimes(mach, 800, false))
	spilled := moduleSeconds(m.LayerTimes(mach, 800, true))
	if spilled["Pairformer"] <= normal["Pairformer"]*1.5 {
		t.Error("unified-memory spill must slow compute substantially")
	}
}

func TestInferenceErrors(t *testing.T) {
	if _, err := Inference(platform.Server(), Model{}, 100, InferenceOptions{}); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := Inference(platform.Server(), DefaultModel(), 0, InferenceOptions{}); err == nil {
		t.Error("zero length accepted")
	}
}

func TestBatchedInferenceOfOneMatchesSingle(t *testing.T) {
	m := DefaultModel()
	for _, opts := range []InferenceOptions{
		{},
		{Threads: 6, CompileSeconds: 35},
		{WarmStart: true, Threads: 4},
		{WarmStart: true, Recompile: true, CompileSeconds: 35},
	} {
		for _, mach := range []platform.Machine{platform.Server(), platform.Desktop()} {
			for _, n := range []int{242, 484, 1395} {
				single, err := Inference(mach, m, n, opts)
				if err != nil {
					t.Fatal(err)
				}
				batched, err := BatchedInference(mach, m, n, 1, opts)
				if err != nil {
					t.Fatal(err)
				}
				if single != batched {
					t.Fatalf("%s n=%d opts=%+v: batch-of-1 %+v != single %+v",
						mach.Name, n, opts, batched, single)
				}
			}
		}
	}
}

func TestBatchedOverheadMonotonicallyNonIncreasing(t *testing.T) {
	m := DefaultModel()
	mach := platform.Server()
	for _, n := range []int{242, 484, 881} {
		limit := m.MaxBatch(mach, n)
		if limit > 32 {
			limit = 32
		}
		prev := 2.0
		prevShare := 0.0
		for b := 1; b <= limit; b++ {
			pb, err := BatchedInference(mach, m, n, b, InferenceOptions{Threads: 1, CompileSeconds: 35})
			if err != nil {
				t.Fatal(err)
			}
			if f := overheadFraction(pb); f > prev {
				t.Fatalf("n=%d: overhead fraction rose at batch %d: %.4f > %.4f", n, b, f, prev)
			} else {
				prev = f
			}
			// Per-request amortized cost must also never increase.
			share := pb.Total() / float64(b)
			if b > 1 && share > prevShare {
				t.Fatalf("n=%d: per-request share rose at batch %d: %.2f > %.2f", n, b, share, prevShare)
			}
			prevShare = share
			if pb.Spilled {
				t.Fatalf("n=%d batch %d spilled within MaxBatch %d", n, b, limit)
			}
		}
	}
}

func TestMaxBatchCapPreventsSpill(t *testing.T) {
	m := DefaultModel()
	srv := platform.Server()
	limit := m.MaxBatch(srv, 484)
	if limit < 2 {
		t.Fatalf("server MaxBatch(484) = %d, want headroom for batching", limit)
	}
	at, err := BatchedInference(srv, m, 484, limit, InferenceOptions{CompileSeconds: 35})
	if err != nil {
		t.Fatal(err)
	}
	if at.Spilled {
		t.Error("batch at MaxBatch must not spill")
	}
	over, err := BatchedInference(srv, m, 484, limit+1, InferenceOptions{CompileSeconds: 35})
	if err != nil {
		t.Fatal(err)
	}
	if !over.Spilled {
		t.Error("batch beyond MaxBatch must spill")
	}
	// A member that individually spills (6QNR on the stock desktop) caps
	// the batch at 1 — it runs alone.
	if got := m.MaxBatch(platform.Desktop(), 1395); got != 1 {
		t.Errorf("desktop MaxBatch(1395) = %d, want 1", got)
	}
}

func TestWarmRecompileChargesCompileOnly(t *testing.T) {
	m := DefaultModel()
	pb, err := Inference(platform.Server(), m, 484, InferenceOptions{
		Threads: 2, WarmStart: true, Recompile: true, CompileSeconds: 35,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pb.InitSeconds != 0 {
		t.Errorf("warm recompile charged init %.1fs", pb.InitSeconds)
	}
	want := 35 * (1 + hostContention)
	if pb.CompileSeconds != want {
		t.Errorf("warm recompile compile = %v, want %v", pb.CompileSeconds, want)
	}
	// Zero CompileSeconds means a compiled executable is on hand: no charge,
	// cold or warm (the old clock-ratio fallback is gone).
	cold, err := Inference(platform.Server(), m, 484, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CompileSeconds != 0 {
		t.Errorf("cold with cached executable charged compile %.1fs", cold.CompileSeconds)
	}
	if cold.InitSeconds == 0 {
		t.Error("cold start must still charge init")
	}
}

func TestBatchedInferenceErrors(t *testing.T) {
	if _, err := BatchedInference(platform.Server(), DefaultModel(), 484, 0, InferenceOptions{}); err == nil {
		t.Error("zero batch accepted")
	}
}

func TestH100FasterThanRTX4080(t *testing.T) {
	m := DefaultModel()
	srv := moduleSeconds(m.LayerTimes(platform.Server(), 857, false))
	dsk := moduleSeconds(m.LayerTimes(platform.Desktop(), 857, false))
	if srv["Pairformer"]+srv["Diffusion"] >= dsk["Pairformer"]+dsk["Diffusion"] {
		t.Error("H100 must out-compute the RTX 4080")
	}
}
