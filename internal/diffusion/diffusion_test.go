package diffusion

import (
	"math"
	"slices"
	"testing"

	"afsysbench/internal/rng"
	"afsysbench/internal/tensor"
)

func tinyConfig() Config {
	return Config{
		Samples:        1,
		Steps:          3,
		TokenDim:       16,
		AtomDim:        8,
		AtomsPerToken:  4,
		AtomWindow:     6,
		GlobalLayers:   2,
		LocalEncLayers: 2,
		LocalDecLayers: 2,
		Heads:          2,
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Evaluations() != cfg.Samples*cfg.Steps {
		t.Error("evaluations wrong")
	}
	if cfg.Evaluations() < 100 {
		t.Error("AF3-scale sampling should run hundreds of denoiser evaluations")
	}
}

func TestValidateRejectsBad(t *testing.T) {
	bad := tinyConfig()
	bad.Steps = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero steps accepted")
	}
	bad = tinyConfig()
	bad.AtomWindow = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero window accepted")
	}
	bad = tinyConfig()
	bad.GlobalLayers = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero global layers accepted")
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range Kinds() {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
	if GlobalAttention.String() != "global attention" {
		t.Error("global attention name wrong")
	}
}

// totalFlops sums every layer class's FLOPs at n tokens.
func totalFlops(c Config, n int) float64 {
	var total float64
	for _, k := range Kinds() {
		total += c.LayerFlops(k, n)
	}
	return total
}

func TestGlobalAttentionDominatesAndGrows(t *testing.T) {
	cfg := DefaultConfig()
	share := func(n int) float64 {
		return cfg.LayerFlops(GlobalAttention, n) / totalFlops(cfg, n)
	}
	s484, s857 := share(484), share(857)
	// Table VI: global attention is the largest diffusion component
	// (53.08/80.37 at 2PV7) and its share rises with N (102.64/147.53).
	if s484 < 0.45 {
		t.Errorf("global share at N=484 = %.2f, want dominant", s484)
	}
	if s857 <= s484 {
		t.Errorf("global share must grow with N: %.2f -> %.2f", s484, s857)
	}
}

func TestLocalLayersScaleLinearly(t *testing.T) {
	cfg := DefaultConfig()
	for _, k := range []LayerKind{LocalAttnEncoder, LocalAttnDecoder} {
		r := cfg.LayerFlops(k, 2000) / cfg.LayerFlops(k, 1000)
		if math.Abs(r-2) > 0.01 {
			t.Errorf("%v doubling ratio = %.3f, want 2 (linear)", k, r)
		}
	}
	r := cfg.LayerFlops(GlobalAttention, 4000) / cfg.LayerFlops(GlobalAttention, 2000)
	if r < 2.5 {
		t.Errorf("global attention doubling ratio = %.2f, want superlinear", r)
	}
}

func TestEncoderExceedsDecoderWithMoreLayers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LocalEncLayers = 4
	cfg.LocalDecLayers = 3
	if cfg.LayerFlops(LocalAttnEncoder, 500) <= cfg.LayerFlops(LocalAttnDecoder, 500) {
		t.Error("encoder with more layers must cost more")
	}
}

func TestBytesAndKernelsPositive(t *testing.T) {
	cfg := DefaultConfig()
	for _, k := range Kinds() {
		if cfg.LayerBytes(k, 484) <= 0 {
			t.Errorf("%v bytes not positive", k)
		}
		if cfg.Kernels(k) <= 0 {
			t.Errorf("%v kernels not positive", k)
		}
	}
}

func TestCostScalesWithEvaluations(t *testing.T) {
	a := DefaultConfig()
	b := a
	b.Steps *= 2
	if r := totalFlops(b, 484) / totalFlops(a, 484); math.Abs(r-2) > 1e-9 {
		t.Errorf("doubling steps scaled cost by %v, want 2 (paper: cumulative cost linear in iterations)", r)
	}
}

func TestNoiseScheduleShape(t *testing.T) {
	cfg := tinyConfig()
	cfg.Steps = 10
	s := cfg.NoiseSchedule()
	if len(s) != 10 {
		t.Fatal("schedule length wrong")
	}
	for i, v := range s {
		if v <= 0 || v >= 1 {
			t.Errorf("sigma[%d] = %v out of (0,1)", i, v)
		}
		if i > 0 && s[i] >= s[i-1] {
			t.Errorf("schedule not decreasing at %d", i)
		}
	}
}

func TestDenoiseStepShapesAndFiniteness(t *testing.T) {
	cfg := tinyConfig()
	src := rng.New(1)
	d, err := NewDenoiser(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	coords, _, err := d.SampleWithConfidence(6, src.Split(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if coords.Shape[0] != 6*cfg.AtomsPerToken || coords.Shape[1] != 3 {
		t.Errorf("coords shape %v", coords.Shape)
	}
	for _, v := range coords.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite coordinate")
		}
	}
}

func TestDenoiseDeterministic(t *testing.T) {
	cfg := tinyConfig()
	run := func() float32 {
		src := rng.New(5)
		d, _ := NewDenoiser(cfg, src)
		coords, _, err := d.SampleWithConfidence(4, src.Split(2), nil)
		if err != nil {
			t.Fatal(err)
		}
		return coords.Data[7]
	}
	if run() != run() {
		t.Error("denoising not deterministic")
	}
}

func TestDenoiseStepMovesCoords(t *testing.T) {
	cfg := tinyConfig()
	src := rng.New(9)
	d, _ := NewDenoiser(cfg, src)
	coords, _, _ := d.SampleWithConfidence(4, src.Split(1), nil)
	before := slices.Clone(coords.Data)
	if err := d.DenoiseStep(coords, 1.0, nil); err != nil {
		t.Fatal(err)
	}
	moved := false
	for i := range coords.Data {
		if coords.Data[i] != before[i] {
			moved = true
		}
		// The tanh-bounded blend caps per-step movement at 0.1*sigma.
		if diff := math.Abs(float64(coords.Data[i] - before[i])); diff > 0.1+1e-6 {
			t.Fatalf("step moved coordinate by %v, bound is 0.1", diff)
		}
	}
	if !moved {
		t.Error("denoise step did not move coordinates")
	}
}

func TestDenoiseStepAtomCountMismatch(t *testing.T) {
	cfg := tinyConfig()
	src := rng.New(3)
	d, _ := NewDenoiser(cfg, src)
	coords := tensor.New(7, 3) // not divisible by AtomsPerToken=4
	if err := d.DenoiseStep(coords, 1, nil); err == nil {
		t.Error("indivisible atom count accepted")
	}
}

func TestNewDenoiserRejectsInvalid(t *testing.T) {
	if _, err := NewDenoiser(Config{}, rng.New(1)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSampleWithConfidence(t *testing.T) {
	cfg := tinyConfig()
	cfg.Steps = 12
	src := rng.New(21)
	d, err := NewDenoiser(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	coords, conf, err := d.SampleWithConfidence(5, src.Split(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if coords.Shape[0] != 5*cfg.AtomsPerToken {
		t.Fatal("coords shape wrong")
	}
	if len(conf) != 5 {
		t.Fatalf("confidence length = %d", len(conf))
	}
	for i, c := range conf {
		if c <= 0 || c > 1 {
			t.Errorf("confidence[%d] = %v out of (0,1]", i, c)
		}
	}
}

func TestConfidenceRisesWithMoreSteps(t *testing.T) {
	mean := func(steps int) float64 {
		cfg := tinyConfig()
		cfg.Steps = steps
		src := rng.New(23)
		d, err := NewDenoiser(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		_, conf, err := d.SampleWithConfidence(6, src.Split(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, c := range conf {
			sum += c
		}
		return sum / float64(len(conf))
	}
	if short, long := mean(2), mean(16); long <= short {
		t.Errorf("confidence must rise with steps: %v (2) vs %v (16)", short, long)
	}
}
