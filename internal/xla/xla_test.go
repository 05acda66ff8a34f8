package xla

import (
	"testing"

	"afsysbench/internal/diffusion"
	"afsysbench/internal/metering"
	"afsysbench/internal/pairformer"
)

func smallGraph() *Graph {
	g := &Graph{}
	a := g.Add(OpMatMul, []int{4, 4})
	b := g.Add(OpElementwise, []int{4, 4}, a)
	c := g.Add(OpElementwise, []int{4, 4}, b)
	g.Add(OpSoftmax, []int{4, 4}, c)
	return g
}

func TestByteSizeOf(t *testing.T) {
	if ByteSizeOf([]int{2, 3}) != 24 {
		t.Errorf("ByteSizeOf([2,3]) = %d, want 24", ByteSizeOf([]int{2, 3}))
	}
	if ByteSizeOf(nil) != 4 {
		t.Errorf("scalar size = %d, want 4", ByteSizeOf(nil))
	}
}

func TestOpKindStrings(t *testing.T) {
	kinds := []OpKind{OpMatMul, OpSoftmax, OpLayerNorm, OpElementwise, OpTranspose, OpReduce}
	for _, k := range kinds {
		if k.String() == "" {
			t.Error("empty op kind name")
		}
	}
}

func TestCompileEmptyGraphErrors(t *testing.T) {
	if _, err := Compile(&Graph{}, nil); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestFusionChains(t *testing.T) {
	g := smallGraph()
	st, err := Compile(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 4 {
		t.Errorf("ops = %d", st.Ops)
	}
	// Two elementwise ops fuse into the matmul.
	if st.FusedOps != 2 {
		t.Errorf("fused = %d, want 2", st.FusedOps)
	}
	if st.FusionGroups != 1 {
		t.Errorf("groups = %d, want 1", st.FusionGroups)
	}
	// Both fused ops must point at the matmul, not at each other.
	if g.Ops[2].FusedInto != 0 {
		t.Errorf("chained fusion leader = %d, want 0", g.Ops[2].FusedInto)
	}
	if st.Buffers != 2 { // matmul + softmax
		t.Errorf("buffers = %d, want 2", st.Buffers)
	}
}

func TestCompileEmitsTableVSymbols(t *testing.T) {
	var acc metering.Accumulator
	if _, err := Compile(smallGraph(), &acc); err != nil {
		t.Fatal(err)
	}
	by := acc.Ledger()
	for _, fn := range []metering.Func{metering.ByteSizeOf, metering.FillInsert, metering.CompilePasses} {
		if by[fn].Instructions == 0 {
			t.Errorf("missing compile event %s", fn)
		}
	}
	if by[metering.FillInsert].Allocated == 0 {
		t.Error("buffer assignment must report allocation (page-fault source)")
	}
	if metering.ByteSizeOf.Pattern() != metering.Random {
		t.Error("shape walks must be random-access")
	}
}

func TestInferenceGraphScale(t *testing.T) {
	pf := pairformer.DefaultConfig()
	df := diffusion.DefaultConfig()
	g := BuildInferenceGraph(pf, df, 484, 10)
	if len(g.Ops) < 10000 {
		t.Errorf("AF3-scale graph has only %d ops", len(g.Ops))
	}
	st, err := Compile(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Live-range peak must be far below the naive sum and above zero.
	if st.PeakBytes <= 0 {
		t.Error("peak bytes not positive")
	}
	if st.PeakBytes > 8<<30 {
		t.Errorf("peak bytes %d implausibly large — liveness pass broken?", st.PeakBytes)
	}
	// Compile-cost contrast of Figure 8: desktop-rate ~10 s.
	desktopSeconds := float64(st.Instructions) / (5.6 * 3.2 * 1e9)
	if desktopSeconds < 4 || desktopSeconds > 25 {
		t.Errorf("desktop-rate compile = %.1fs, want ~10s", desktopSeconds)
	}
}

func TestGraphGrowsWithRecycles(t *testing.T) {
	pf := pairformer.DefaultConfig()
	pf.Blocks = 2
	df := diffusion.DefaultConfig()
	df.GlobalLayers, df.LocalEncLayers, df.LocalDecLayers = 2, 1, 1
	g1 := BuildInferenceGraph(pf, df, 32, 1)
	g3 := BuildInferenceGraph(pf, df, 32, 3)
	if len(g3.Ops) <= len(g1.Ops) {
		t.Error("recycles must grow the graph")
	}
}

func TestCompileDeterministic(t *testing.T) {
	pf := pairformer.DefaultConfig()
	pf.Blocks = 3
	df := diffusion.DefaultConfig()
	a, _ := Compile(BuildInferenceGraph(pf, df, 64, 2), nil)
	b, _ := Compile(BuildInferenceGraph(pf, df, 64, 2), nil)
	if a != b {
		t.Errorf("compile stats differ across identical builds:\n%+v\n%+v", a, b)
	}
}

// TestInferenceGraphSizedOnce: BuildInferenceGraph allocates its op list
// once — the closed-form count is exact, whatever the token count — and
// the graph compiles to the stats and events it always did (the pins are
// the values of the append-grown builder, at n = 400 with the default
// model).
func TestInferenceGraphSizedOnce(t *testing.T) {
	small := pairformer.DefaultConfig()
	small.Blocks = 2
	tiny := diffusion.DefaultConfig()
	tiny.GlobalLayers, tiny.LocalEncLayers, tiny.LocalDecLayers = 2, 1, 0
	for _, tc := range []struct {
		pf       pairformer.Config
		df       diffusion.Config
		recycles int
	}{
		{pairformer.DefaultConfig(), diffusion.DefaultConfig(), 10},
		{pairformer.DefaultConfig(), diffusion.DefaultConfig(), 1},
		{small, tiny, 3},
		{small, tiny, 0},
	} {
		for _, n := range []int{1, 32, 400} {
			g := BuildInferenceGraph(tc.pf, tc.df, n, tc.recycles)
			if len(g.Ops) != cap(g.Ops) {
				t.Errorf("blocks %d, recycles %d, n %d: %d ops in a list of capacity %d",
					tc.pf.Blocks, tc.recycles, n, len(g.Ops), cap(g.Ops))
			}
		}
	}
	var events metering.Log
	st, err := Compile(BuildInferenceGraph(pairformer.DefaultConfig(), diffusion.DefaultConfig(), 400, 10), &events)
	if err != nil {
		t.Fatal(err)
	}
	want := CompileStats{Ops: 23838, FusedOps: 5311, FusionGroups: 3391, Buffers: 18527, PeakBytes: 594534400, Instructions: 0x340941b300}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	type work struct {
		fn                                                   string
		instructions, bytes, workingSet, branches, allocated uint64
	}
	wantEvents := []work{
		{"xla::ShapeUtil::ByteSizeOf", 0x32039d0, 0x2e8f0000, 0x174780, 0x6d1f28, 0},
		{"std::vector::_M_fill_insert", 0x711470, 0x236fe000, 0x236fe000, 0x485f0, 0x236fe000},
		{"xla_compile_passes", 0x340941b300, 0x22eb4000, 0x5d1e000, 0x8ac359dd5, 0},
	}
	if len(events) != len(wantEvents) {
		t.Fatalf("%d events, want %d", len(events), len(wantEvents))
	}
	for i, ev := range events {
		got := work{ev.Func.String(), ev.Instructions, ev.Bytes, ev.WorkingSet, ev.Branches, ev.Allocated}
		if got != wantEvents[i] {
			t.Errorf("event %d = %+v, want %+v", i, got, wantEvents[i])
		}
	}
}
