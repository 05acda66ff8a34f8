// Package xla is a miniature tensor-graph compiler standing in for the
// JAX/XLA pipeline that dominates AlphaFold3's inference startup on the
// server platform (paper Figure 8, Table V). It builds a real operator
// graph for the AF3 forward pass, then runs real passes over it — shape
// inference (ByteSizeOf), elementwise fusion, and buffer assignment (the
// std::vector::_M_fill_insert allocation hot spot) — reporting metering
// events so the CPU model can price compilation on each platform.
package xla

import (
	"fmt"

	"afsysbench/internal/diffusion"
	"afsysbench/internal/metering"
	"afsysbench/internal/pairformer"
)

// OpKind classifies graph nodes.
type OpKind int

const (
	OpMatMul OpKind = iota
	OpSoftmax
	OpLayerNorm
	OpElementwise
	OpTranspose
	OpReduce
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpMatMul:
		return "matmul"
	case OpSoftmax:
		return "softmax"
	case OpLayerNorm:
		return "layernorm"
	case OpElementwise:
		return "elementwise"
	case OpTranspose:
		return "transpose"
	case OpReduce:
		return "reduce"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one node of the tensor program.
type Op struct {
	ID     int
	Kind   OpKind
	Shape  []int // output shape
	Inputs []int // producer op IDs
	// FusedInto is the ID of the fusion group leader, or -1.
	FusedInto int
}

// Graph is a tensor program in topological order.
type Graph struct {
	Ops []Op
}

// Add appends an op and returns its ID.
func (g *Graph) Add(kind OpKind, shape []int, inputs ...int) int {
	id := len(g.Ops)
	g.Ops = append(g.Ops, Op{ID: id, Kind: kind, Shape: shape, Inputs: inputs, FusedInto: -1})
	return id
}

// ByteSizeOf returns the byte size of a float32 tensor shape — the analog
// of xla::ShapeUtil::ByteSizeOf, the dTLB-miss hot spot of Table V.
func ByteSizeOf(shape []int) int64 {
	var n int64 = 4
	for _, d := range shape {
		n *= int64(d)
	}
	return n
}

// BuildInferenceGraph constructs the operator graph for one AF3 forward
// pass at n tokens: recycles × Pairformer blocks plus the diffusion
// denoiser unrolled per evaluation batch. The graph is structurally real —
// ops, shapes and dependencies — at a per-block granularity matching the
// module implementations.
func BuildInferenceGraph(pf pairformer.Config, df diffusion.Config, n, recycles int) *Graph {
	g := &Graph{Ops: make([]Op, 0, inferenceGraphOps(pf, df, recycles))}
	pair := g.Add(OpElementwise, []int{n * n, pf.PairDim})
	single := g.Add(OpElementwise, []int{n, pf.SingleDim})

	for r := 0; r < recycles; r++ {
		for b := 0; b < pf.Blocks; b++ {
			pair, single = addPairformerBlock(g, pf, n, pair, single)
		}
	}

	// Diffusion denoiser: one unrolled evaluation (XLA compiles the step
	// function once; the runtime loops it).
	atoms := n * df.AtomsPerToken
	coords := g.Add(OpElementwise, []int{atoms, 3})
	feat := g.Add(OpMatMul, []int{atoms, df.AtomDim}, coords)
	for l := 0; l < df.LocalEncLayers; l++ {
		feat = addAttention(g, feat, []int{atoms, df.AtomDim}, []int{atoms, df.AtomWindow})
	}
	tok := g.Add(OpReduce, []int{n, df.AtomDim}, feat)
	tok = g.Add(OpMatMul, []int{n, df.TokenDim}, tok)
	for l := 0; l < df.GlobalLayers; l++ {
		tok = addAttention(g, tok, []int{n, df.TokenDim}, []int{n, n})
	}
	back := g.Add(OpMatMul, []int{atoms, df.AtomDim}, tok, feat)
	for l := 0; l < df.LocalDecLayers; l++ {
		back = addAttention(g, back, []int{atoms, df.AtomDim}, []int{atoms, df.AtomWindow})
	}
	g.Add(OpMatMul, []int{atoms, 3}, back)
	return g
}

// The builders' op counts, in closed form, so that BuildInferenceGraph
// sizes its op list once. None depends on the token count.
const (
	// attentionOps: q, k, v, kᵀ, logits, softmax, context, output,
	// residual, layer norm.
	attentionOps = 10
	// pairformerBlockOps: two triangle multiplications of 8 ops, two
	// triangle attentions of 9, the pair transition's 5 and the single
	// track's attention.
	pairformerBlockOps = 2*8 + 2*9 + 5 + attentionOps
)

// inferenceGraphOps is len(BuildInferenceGraph(pf, df, n, recycles).Ops)
// for every n: the pair and single inputs, the Pairformer blocks, and the
// denoiser's six projections and reductions around its attention layers.
func inferenceGraphOps(pf pairformer.Config, df diffusion.Config, recycles int) int {
	return 2 + recycles*pf.Blocks*pairformerBlockOps +
		6 + attentionOps*(df.LocalEncLayers+df.GlobalLayers+df.LocalDecLayers)
}

func addPairformerBlock(g *Graph, pf pairformer.Config, n, pair, single int) (int, int) {
	pairShape := []int{n * n, pf.PairDim}
	hidShape := []int{n * n, pf.TriHidden}
	// Triangle multiplicative update, both directions.
	for dir := 0; dir < 2; dir++ {
		a := g.Add(OpMatMul, hidShape, pair)
		b := g.Add(OpMatMul, hidShape, pair)
		gate := g.Add(OpMatMul, hidShape, pair)
		gate = g.Add(OpElementwise, hidShape, gate) // sigmoid
		comb := g.Add(OpMatMul, hidShape, a, b)     // Σ_k contraction
		gated := g.Add(OpElementwise, hidShape, comb, gate)
		upd := g.Add(OpMatMul, pairShape, gated)
		pair = g.Add(OpElementwise, pairShape, pair, upd) // residual
	}
	// Triangle attention, both orientations.
	hd := pf.Heads * pf.HeadDim
	for dir := 0; dir < 2; dir++ {
		q := g.Add(OpMatMul, []int{n * n, hd}, pair)
		k := g.Add(OpMatMul, []int{n * n, hd}, pair)
		v := g.Add(OpMatMul, []int{n * n, hd}, pair)
		bias := g.Add(OpMatMul, []int{n * n, pf.Heads}, pair)
		logits := g.Add(OpMatMul, []int{n * n, n}, q, k, bias)
		sm := g.Add(OpSoftmax, []int{n * n, n}, logits)
		ctx := g.Add(OpMatMul, []int{n * n, hd}, sm, v)
		upd := g.Add(OpMatMul, pairShape, ctx)
		pair = g.Add(OpElementwise, pairShape, pair, upd)
	}
	// Pair transition.
	h := g.Add(OpMatMul, []int{n * n, pf.PairDim * pf.TransMult}, pair)
	h = g.Add(OpElementwise, []int{n * n, pf.PairDim * pf.TransMult}, h) // relu
	upd := g.Add(OpMatMul, pairShape, h)
	pair = g.Add(OpElementwise, pairShape, pair, upd)
	pair = g.Add(OpLayerNorm, pairShape, pair)
	// Single update.
	single = addAttention(g, single, []int{n, pf.SingleDim}, []int{n, n})
	return pair, single
}

func addAttention(g *Graph, x int, shape, logitShape []int) int {
	q := g.Add(OpMatMul, shape, x)
	k := g.Add(OpMatMul, shape, x)
	v := g.Add(OpMatMul, shape, x)
	kt := g.Add(OpTranspose, shape, k)
	logits := g.Add(OpMatMul, logitShape, q, kt)
	sm := g.Add(OpSoftmax, logitShape, logits)
	ctx := g.Add(OpMatMul, shape, sm, v)
	out := g.Add(OpMatMul, shape, ctx)
	res := g.Add(OpElementwise, shape, x, out)
	return g.Add(OpLayerNorm, shape, res)
}

// CompileStats summarizes a compilation.
type CompileStats struct {
	Ops          int
	FusedOps     int
	FusionGroups int
	Buffers      int
	// PeakBytes is the buffer-assignment high-water mark: the activation
	// memory the executable will allocate at startup.
	PeakBytes int64
	// Instructions is the modeled host instruction count of the compile
	// (autotuning, pattern matching, codegen — scaled per op).
	Instructions uint64
}

// Per-op modeled compile cost: XLA autotunes dot/attention ops heavily.
// Calibrated so AF3-scale graphs cost ~10 s on the desktop CPU, matching
// the paper's Figure 8 measurement.
const (
	compileInstrPerOp     = 2.2e6
	compileInstrPerMatMul = 11e6
	compileBytesPerOp     = 24 << 10
)

// Compile runs shape inference, elementwise fusion and buffer assignment
// over the graph, reporting the host-side work as metering events with the
// paper's Table V symbol names. It returns the stats and the executable
// kernel count.
func Compile(g *Graph, m metering.Meter) (CompileStats, error) {
	if m == nil {
		m = metering.Nop{}
	}
	var st CompileStats
	st.Ops = len(g.Ops)
	if st.Ops == 0 {
		return st, fmt.Errorf("xla: empty graph")
	}

	// Pass 1: shape inference / size computation (ByteSizeOf per op).
	var totalBytes int64
	for i := range g.Ops {
		totalBytes += ByteSizeOf(g.Ops[i].Shape)
	}
	// Shape metadata is re-queried throughout every pass (layout
	// assignment, fusion legality, buffer sizing), so the per-op traffic
	// is far larger than one struct read.
	m.Record(metering.Event{
		Func:         metering.ByteSizeOf,
		Instructions: uint64(st.Ops) * 2200,
		Bytes:        uint64(st.Ops) * 32768,
		WorkingSet:   uint64(st.Ops) * 64, // scattered shape metadata
		Branches:     uint64(st.Ops) * 300,
	})

	// Pass 2: greedy elementwise fusion into the producing op.
	matmuls := 0
	for i := range g.Ops {
		op := &g.Ops[i]
		if op.Kind == OpMatMul {
			matmuls++
		}
		if op.Kind != OpElementwise || len(op.Inputs) == 0 {
			continue
		}
		leader := op.Inputs[0]
		// Follow an existing fusion chain to its leader.
		for g.Ops[leader].FusedInto >= 0 {
			leader = g.Ops[leader].FusedInto
		}
		op.FusedInto = leader
		st.FusedOps++
	}
	groups := make(map[int]bool)
	for i := range g.Ops {
		if g.Ops[i].FusedInto >= 0 {
			groups[g.Ops[i].FusedInto] = true
		}
	}
	st.FusionGroups = len(groups)

	// Pass 3: buffer assignment — one allocation per unfused op output,
	// freed after its last consumer (real live-range analysis). This is
	// the _M_fill_insert behavior: large zero-initialized vectors whose
	// first touch page-faults (Table V: 12–17% overhead). Logit-sized
	// intermediates are tiled by the backend, so any single buffer's
	// contribution is capped at the tile arena size.
	const tileArenaBytes = 256 << 20
	lastUse := make([]int, len(g.Ops))
	for i := range g.Ops {
		for _, in := range g.Ops[i].Inputs {
			lastUse[in] = i
		}
	}
	var live, peak int64
	freeAt := make(map[int][]int64)
	for i := range g.Ops {
		if g.Ops[i].FusedInto < 0 {
			st.Buffers++
			sz := ByteSizeOf(g.Ops[i].Shape)
			if sz > tileArenaBytes {
				sz = tileArenaBytes
			}
			live += sz
			freeAt[lastUse[i]] = append(freeAt[lastUse[i]], sz)
			if live > peak {
				peak = live
			}
		}
		for _, sz := range freeAt[i] {
			live -= sz
		}
		delete(freeAt, i)
	}
	st.PeakBytes = peak
	m.Record(metering.Event{
		Func:         metering.FillInsert,
		Instructions: uint64(st.Buffers) * 400,
		Bytes:        uint64(st.PeakBytes),
		WorkingSet:   uint64(st.PeakBytes),
		Branches:     uint64(st.Buffers) * 16,
		Allocated:    uint64(st.PeakBytes),
	})

	// The bulk compile work (pattern matching, autotuning, codegen).
	st.Instructions = uint64(float64(st.Ops)*compileInstrPerOp + float64(matmuls)*compileInstrPerMatMul)
	m.Record(metering.Event{
		Func:         metering.CompilePasses,
		Instructions: st.Instructions,
		Bytes:        uint64(st.Ops) * compileBytesPerOp,
		WorkingSet:   uint64(st.Ops) * 4096,
		Branches:     st.Instructions / 6,
	})
	return st, nil
}
