package pairformer

import (
	"math"
	"slices"
	"testing"

	"afsysbench/internal/rng"
)

func tinyConfig() Config {
	return Config{
		Blocks:    2,
		PairDim:   8,
		SingleDim: 16,
		Heads:     2,
		HeadDim:   4,
		TriHidden: 8,
		TransMult: 2,
	}
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Blocks != 48 {
		t.Errorf("AF3 Pairformer depth is 48, got %d", cfg.Blocks)
	}
	if cfg.PairDim != 128 || cfg.SingleDim != 384 {
		t.Error("AF3 representation widths wrong")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		{Blocks: -1, PairDim: 8, SingleDim: 8, Heads: 1, HeadDim: 1, TriHidden: 1, TransMult: 1},
		{Blocks: 1, PairDim: 0, SingleDim: 8, Heads: 1, HeadDim: 1, TriHidden: 1, TransMult: 1},
		{Blocks: 1, PairDim: 8, SingleDim: 8, Heads: 0, HeadDim: 1, TriHidden: 1, TransMult: 1},
		{Blocks: 1, PairDim: 8, SingleDim: 8, Heads: 1, HeadDim: 1, TriHidden: 0, TransMult: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestLayerKindStrings(t *testing.T) {
	for _, k := range Kinds() {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
	if TriangleAttention.String() != "triangle attention" {
		t.Error("triangle attention name wrong")
	}
}

func TestFlopsCubicDominance(t *testing.T) {
	cfg := DefaultConfig()
	// Doubling N must scale the triangle layers toward 8x (cubic); the
	// projection terms keep the ratio slightly below 8 at moderate N.
	for _, kind := range []LayerKind{TriangleMult, TriangleAttention} {
		r := cfg.LayerFlops(kind, 8192) / cfg.LayerFlops(kind, 4096)
		if r < 7 || r > 8.5 {
			t.Errorf("%v doubling ratio = %.2f, want ~8 (cubic)", kind, r)
		}
	}
	// Pair transition is quadratic.
	r := cfg.LayerFlops(PairTransition, 2048) / cfg.LayerFlops(PairTransition, 1024)
	if r < 3.9 || r > 4.1 {
		t.Errorf("transition doubling ratio = %.2f, want 4 (quadratic)", r)
	}
}

// totalFlops sums every layer class's FLOPs at length n.
func totalFlops(c Config, n int) float64 {
	var total float64
	for _, k := range Kinds() {
		total += c.LayerFlops(k, n)
	}
	return total
}

func TestTriangleAttentionDominatesAtPaperScale(t *testing.T) {
	cfg := DefaultConfig()
	for _, n := range []int{484, 857} {
		attn := cfg.LayerFlops(TriangleAttention, n)
		total := totalFlops(cfg, n)
		if share := attn / total; share < 0.40 {
			t.Errorf("N=%d: triangle attention share %.2f, paper finds it dominant", n, share)
		}
		mult := cfg.LayerFlops(TriangleMult, n)
		if attn <= mult {
			t.Errorf("N=%d: attention (%.3g) must exceed mult update (%.3g)", n, attn, mult)
		}
		// Table VI ratio attn/mult ≈ 2.0 (8.14/4.03, 31.09/12.03).
		if ratio := attn / mult; ratio < 1.4 || ratio > 3.0 {
			t.Errorf("N=%d: attn/mult ratio %.2f, want ~2", n, ratio)
		}
	}
}

func TestLayerBytesAndKernelsPositive(t *testing.T) {
	cfg := DefaultConfig()
	for _, k := range Kinds() {
		if cfg.LayerBytes(k, 484) <= 0 {
			t.Errorf("%v bytes not positive", k)
		}
		if cfg.Kernels(k) <= 0 {
			t.Errorf("%v kernels not positive", k)
		}
	}
	if cfg.LayerFlops(LayerKind(99), 100) != 0 || cfg.LayerBytes(LayerKind(99), 100) != 0 {
		t.Error("unknown kind should cost nothing")
	}
}

func TestBlockApplyShapesAndFiniteness(t *testing.T) {
	cfg := tinyConfig()
	src := rng.New(1)
	blk, err := NewBlock(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	s := RandomState(cfg, 12, src.Split(9))
	if err := blk.Apply(s, nil); err != nil {
		t.Fatal(err)
	}
	if s.Pair.Shape[0] != 144 || s.Pair.Shape[1] != cfg.PairDim {
		t.Error("pair shape changed")
	}
	if s.Single.Shape[0] != 12 || s.Single.Shape[1] != cfg.SingleDim {
		t.Error("single shape changed")
	}
	for _, v := range s.Pair.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite pair value")
		}
	}
	for _, v := range s.Single.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite single value")
		}
	}
}

func TestBlockApplyChangesState(t *testing.T) {
	cfg := tinyConfig()
	src := rng.New(2)
	blk, _ := NewBlock(cfg, src)
	s := RandomState(cfg, 8, src.Split(9))
	before := slices.Clone(s.Pair.Data)
	if err := blk.Apply(s, nil); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range before {
		if before[i] != s.Pair.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("block with random weights left pair representation unchanged")
	}
}

func TestZeroWeightBlockPreservesPair(t *testing.T) {
	// All residual updates vanish with zero weights, so the pair
	// representation must be exactly preserved.
	cfg := tinyConfig()
	blk, err := NewBlock(cfg, nil) // nil source -> zero weights
	if err != nil {
		t.Fatal(err)
	}
	s := RandomState(cfg, 6, rng.New(3))
	before := slices.Clone(s.Pair.Data)
	if err := blk.Apply(s, nil); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != s.Pair.Data[i] {
			t.Fatalf("pair changed at %d: %v -> %v", i, before[i], s.Pair.Data[i])
		}
	}
}

func TestApplyDeterministic(t *testing.T) {
	cfg := tinyConfig()
	run := func() float32 {
		src := rng.New(7)
		blk, _ := NewBlock(cfg, src)
		s := RandomState(cfg, 10, src.Split(9))
		if err := blk.Apply(s, nil); err != nil {
			t.Fatal(err)
		}
		return s.Pair.Data[17]
	}
	if run() != run() {
		t.Error("block application not deterministic")
	}
}

func TestApplyShapeMismatchErrors(t *testing.T) {
	cfg := tinyConfig()
	blk, _ := NewBlock(cfg, rng.New(1))
	s := RandomState(cfg, 6, rng.New(2))
	s.N = 7 // lie about N
	if err := blk.Apply(s, nil); err == nil {
		t.Error("mismatched N accepted")
	}
}

func TestStackRuns(t *testing.T) {
	cfg := tinyConfig()
	src := rng.New(11)
	s := RandomState(cfg, 8, src.Split(1))
	if err := Stack(cfg, s, src, nil); err != nil {
		t.Fatal(err)
	}
	var v float64
	for _, x := range s.Pair.Data {
		v = math.Max(v, math.Abs(float64(x)))
	}
	if math.IsNaN(v) || v == 0 {
		t.Errorf("stack output suspicious: maxabs=%v", v)
	}
}

func TestNewBlockRejectsInvalidConfig(t *testing.T) {
	if _, err := NewBlock(Config{}, rng.New(1)); err == nil {
		t.Error("invalid config accepted")
	}
}
