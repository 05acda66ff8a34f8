// Package pairformer implements AlphaFold3's Pairformer stack — the module
// that replaced AF2's Evoformer (paper Section II-B): triangle
// multiplicative updates (outgoing/incoming), triangle self-attention
// (starting/ending node), pair transitions, and single-representation
// attention with pair bias. The math runs for real on float32 tensors at
// any size; per-layer analytical FLOP/byte formulas extrapolate the cost to
// paper-scale sequence lengths for the GPU timing model.
package pairformer

import (
	"fmt"
	"math"

	"afsysbench/internal/parallel"
	"afsysbench/internal/rng"
	"afsysbench/internal/tensor"
)

// Config sizes the stack. Defaults mirror AF3's published architecture.
type Config struct {
	Blocks    int // depth of the stack (48 in AF3)
	PairDim   int // c_z, pair representation channels
	SingleDim int // c_s, single representation channels
	Heads     int // triangle attention heads
	HeadDim   int // per-head dimension
	TriHidden int // triangle multiplicative update hidden channels
	TransMult int // transition expansion factor
}

// DefaultConfig returns AF3-scale dimensions.
func DefaultConfig() Config {
	return Config{
		Blocks:    48,
		PairDim:   128,
		SingleDim: 384,
		Heads:     4,
		HeadDim:   32,
		TriHidden: 128,
		TransMult: 4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Blocks <= 0:
		return fmt.Errorf("pairformer: Blocks must be positive, got %d", c.Blocks)
	case c.PairDim <= 0 || c.SingleDim <= 0:
		return fmt.Errorf("pairformer: dims must be positive (pair %d, single %d)", c.PairDim, c.SingleDim)
	case c.Heads <= 0 || c.HeadDim <= 0:
		return fmt.Errorf("pairformer: heads/headDim must be positive (%d, %d)", c.Heads, c.HeadDim)
	case c.TriHidden <= 0 || c.TransMult <= 0:
		return fmt.Errorf("pairformer: hidden sizes must be positive (%d, %d)", c.TriHidden, c.TransMult)
	}
	return nil
}

// LayerKind enumerates the profiled layer classes of Figure 9 / Table VI.
type LayerKind int

const (
	TriangleMult LayerKind = iota
	TriangleAttention
	PairTransition
	SingleUpdate // the "Others" block of Figure 1
)

// String implements fmt.Stringer.
func (k LayerKind) String() string {
	switch k {
	case TriangleMult:
		return "triangle mult. update"
	case TriangleAttention:
		return "triangle attention"
	case PairTransition:
		return "pair transition"
	case SingleUpdate:
		return "single update"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// Kinds lists all layer classes in stack order.
func Kinds() []LayerKind {
	return []LayerKind{TriangleMult, TriangleAttention, PairTransition, SingleUpdate}
}

// LayerFlops returns the FLOPs of one layer class across the whole stack
// (all Blocks) at sequence length n. The triangle layers carry the O(N³)
// terms the paper identifies as the dominant hotspots.
func (c Config) LayerFlops(kind LayerKind, n int) float64 {
	nf := float64(n)
	b := float64(c.Blocks)
	d := float64(c.PairDim)
	ds := float64(c.SingleDim)
	hd := float64(c.Heads * c.HeadDim)
	ch := float64(c.TriHidden)
	switch kind {
	case TriangleMult:
		// Both edge directions: projections (4 of them, N²·d·ch) plus the
		// cubic combine Σ_k a_ik ⊙ b_jk and the output projection.
		return b * (4*nf*nf*nf*ch + 2*(4*nf*nf*d*ch+2*nf*nf*ch*d))
	case TriangleAttention:
		// Starting + ending node: QKV/bias/out projections (N² terms) and
		// the cubic logits + attention-weighted sums.
		proj := 2 * (8 * nf * nf * d * hd)
		cubic := 2 * (2*nf*nf*nf*hd + 2*nf*nf*nf*hd + 3*nf*nf*nf*float64(c.Heads))
		return b * (proj + cubic)
	case PairTransition:
		return b * (2 * 2 * nf * nf * d * d * float64(c.TransMult))
	case SingleUpdate:
		// Single attention with pair bias plus single transition.
		attn := 8*nf*ds*ds + 4*nf*nf*ds + nf*nf*float64(c.Heads)
		trans := 4 * nf * ds * ds * float64(c.TransMult)
		return b * (attn + trans)
	default:
		return 0
	}
}

// LayerBytes returns the memory traffic of one layer class across the stack
// at sequence length n. Triangle attention materializes N³ logits (AF3 does
// not use flash-style attention inside the triangle kernels), which is why
// the paper finds it memory-hungry.
func (c Config) LayerBytes(kind LayerKind, n int) float64 {
	nf := float64(n)
	b := float64(c.Blocks)
	d := float64(c.PairDim)
	ds := float64(c.SingleDim)
	const f32 = 4
	switch kind {
	case TriangleMult:
		return b * (6 * nf * nf * d * f32) // read z twice per direction, write once
	case TriangleAttention:
		// The N³ logit tensor streams through HBM once per direction
		// (softmax fused into the dot), plus pair I/O.
		return b * (2*nf*nf*nf*float64(c.Heads)*f32 + 6*nf*nf*d*f32)
	case PairTransition:
		return b * (2 * nf * nf * d * (1 + float64(c.TransMult)) * f32)
	case SingleUpdate:
		return b * (6*nf*ds*f32 + 2*nf*nf*float64(c.Heads)*f32)
	default:
		return 0
	}
}

// Kernels returns how many GPU kernels one layer class launches per block —
// the fixed-overhead term of the GPU time model.
func (c Config) Kernels(kind LayerKind) int {
	switch kind {
	case TriangleMult:
		return 14
	case TriangleAttention:
		return 18
	case PairTransition:
		return 6
	case SingleUpdate:
		return 12
	default:
		return 0
	}
}

// Block holds one Pairformer block's weights. Weights are random (we study
// performance, not accuracy), drawn deterministically from a seed.
type Block struct {
	cfg Config

	// Triangle multiplicative update projections (shared across the two
	// directions for compactness; direction changes the contraction axis).
	triA, triB, triOut, triGate *tensor.Tensor

	// Triangle attention projections.
	attnQ, attnK, attnV, attnBias, attnOut *tensor.Tensor

	// Pair transition MLP.
	trans1, trans2 *tensor.Tensor

	// Single update projections.
	singleQ, singleK, singleV, singleOut *tensor.Tensor
}

// NewBlock builds a block with unit-scaled random weights.
func NewBlock(cfg Config, src *rng.Source) (*Block, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Block{cfg: cfg}
	d, ch := cfg.PairDim, cfg.TriHidden
	hd := cfg.Heads * cfg.HeadDim
	ds := cfg.SingleDim
	b.triA = randWeights(src, d, ch)
	b.triB = randWeights(src, d, ch)
	b.triOut = randWeights(src, ch, d)
	b.triGate = randWeights(src, d, ch)
	b.attnQ = randWeights(src, d, hd)
	b.attnK = randWeights(src, d, hd)
	b.attnV = randWeights(src, d, hd)
	b.attnBias = randWeights(src, d, cfg.Heads)
	b.attnOut = randWeights(src, hd, d)
	b.trans1 = randWeights(src, d, d*cfg.TransMult)
	b.trans2 = randWeights(src, d*cfg.TransMult, d)
	b.singleQ = randWeights(src, ds, ds)
	b.singleK = randWeights(src, ds, ds)
	b.singleV = randWeights(src, ds, ds)
	b.singleOut = randWeights(src, ds, ds)
	return b, nil
}

func randWeights(src *rng.Source, rows, cols int) *tensor.Tensor {
	w := tensor.New(rows, cols)
	scale := 1 / math.Sqrt(float64(rows))
	if src != nil {
		for i := range w.Data {
			w.Data[i] = float32(src.NormFloat64() * scale)
		}
	}
	return w
}

// State carries the two representations through the stack. Pair is (N*N)×d
// row-major over (i,j); Single is N×ds.
type State struct {
	N      int
	Pair   *tensor.Tensor // shape (N*N, PairDim)
	Single *tensor.Tensor // shape (N, SingleDim)
}

// NewState builds zeroed representations for n tokens.
func NewState(cfg Config, n int) *State {
	return &State{
		N:      n,
		Pair:   tensor.New(n*n, cfg.PairDim),
		Single: tensor.New(n, cfg.SingleDim),
	}
}

// RandomState builds representations with unit-normal entries.
func RandomState(cfg Config, n int, src *rng.Source) *State {
	s := NewState(cfg, n)
	for i := range s.Pair.Data {
		s.Pair.Data[i] = float32(src.NormFloat64())
	}
	for i := range s.Single.Data {
		s.Single.Data[i] = float32(src.NormFloat64())
	}
	return s
}

// pairAt returns the channel vector of pair element (i,j).
func (s *State) pairAt(i, j int) []float32 { return s.Pair.Row(i*s.N + j) }

// Apply runs the block over the state in place: triangle multiplicative
// update (outgoing then incoming), triangle attention (starting then
// ending), pair transition, single update. All layers are residual.
//
// The pool shards every kernel over independent output slices, so results
// are bitwise identical at any worker count; a nil pool runs serially.
// Scratch tensors come from a shared sync.Pool, so steady-state Apply
// calls allocate (almost) nothing.
func (b *Block) Apply(s *State, p *parallel.Pool) error {
	if s.Pair.Shape[0] != s.N*s.N || s.Pair.Shape[1] != b.cfg.PairDim {
		return fmt.Errorf("pairformer: pair shape %v does not match N=%d, d=%d", s.Pair.Shape, s.N, b.cfg.PairDim)
	}
	if s.Single.Shape[0] != s.N || s.Single.Shape[1] != b.cfg.SingleDim {
		return fmt.Errorf("pairformer: single shape %v does not match N=%d, ds=%d", s.Single.Shape, s.N, b.cfg.SingleDim)
	}
	ws := takeWorkspace(b.cfg, s.N, p.Workers())
	defer releaseWorkspace(ws)
	if err := b.triangleMult(s, true, ws, p); err != nil {
		return err
	}
	if err := b.triangleMult(s, false, ws, p); err != nil {
		return err
	}
	if err := b.triangleAttention(s, true, ws, p); err != nil {
		return err
	}
	if err := b.triangleAttention(s, false, ws, p); err != nil {
		return err
	}
	if err := b.pairTransition(s, ws, p); err != nil {
		return err
	}
	return b.singleUpdate(s, ws, p)
}

// triangleMult implements z_ij += Out( gate ⊙ Σ_k a_ik ⊙ b_jk ) for the
// outgoing direction (incoming contracts over k on the first index:
// Σ_k a_ki ⊙ b_kj). The cubic combine is sharded over (i,j) pair rows:
// each output row's k-reduction stays within one shard.
func (b *Block) triangleMult(s *State, outgoing bool, ws *workspace, p *parallel.Pool) error {
	n, ch := s.N, b.cfg.TriHidden
	// Project the whole pair tensor once: projA, projB are (N*N)×ch.
	if err := tensor.MatMulInto(ws.projA, s.Pair, b.triA, p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.projB, s.Pair, b.triB, p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.gate, s.Pair, b.triGate, p); err != nil {
		return err
	}
	ws.gate.SigmoidWith(p)

	a, bp, acc := ws.projA, ws.projB, ws.acc
	p.Run(n*n, func(_, lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			i, j := idx/n, idx%n
			out := acc.Row(idx)
			for c := range out {
				out[c] = 0
			}
			for k := 0; k < n; k++ {
				var ra, rb []float32
				if outgoing {
					ra = a.Row(i*n + k)
					rb = bp.Row(j*n + k)
				} else {
					ra = a.Row(k*n + i)
					rb = bp.Row(k*n + j)
				}
				for cidx := 0; cidx < ch; cidx++ {
					out[cidx] += ra[cidx] * rb[cidx]
				}
			}
		}
	})
	// Normalize by N to keep magnitudes bounded, gate, project, residual.
	acc.ScaleWith(1/float32(n), p)
	if err := tensor.MulAssign(acc, ws.gate, p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.pairUpd, acc, b.triOut, p); err != nil {
		return err
	}
	return tensor.AddAssign(s.Pair, ws.pairUpd, p)
}

// triangleAttention runs per-(i) rows (starting node) or per-(j) columns
// (ending node) attention over intermediates k, with the third triangle
// edge contributing the attention bias. Work is sharded over (head, i)
// units; each unit owns its softmax and writes a disjoint (row, channel)
// slice of the context tensor.
func (b *Block) triangleAttention(s *State, starting bool, ws *workspace, p *parallel.Pool) error {
	n := s.N
	h, hd := b.cfg.Heads, b.cfg.HeadDim
	if err := tensor.MatMulInto(ws.q, s.Pair, b.attnQ, p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.k, s.Pair, b.attnK, p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.v, s.Pair, b.attnV, p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.bias, s.Pair, b.attnBias, p); err != nil { // (N*N)×h
		return err
	}
	q, k, v, bias, upd := ws.q, ws.k, ws.v, ws.bias, ws.ctx
	upd.ZeroWith(p)
	scale := float32(1 / math.Sqrt(float64(hd)))

	p.Run(h*n, func(shard, lo, hi int) {
		logits := ws.logits[shard] // N×N scratch, exclusive to this shard
		for u := lo; u < hi; u++ {
			head, i := u/n, u%n
			off := head * hd
			// For starting node: queries are (i,j), keys/values (i,k),
			// bias from edge (j,k). Ending node mirrors with column focus:
			// queries (i,j) attend over (k,j) with bias (k,i).
			for j := 0; j < n; j++ {
				var qRow []float32
				if starting {
					qRow = q.Row(i*n + j)
				} else {
					qRow = q.Row(j*n + i)
				}
				lrow := logits.Row(j)
				for kk := 0; kk < n; kk++ {
					var kRow []float32
					var bv float32
					if starting {
						kRow = k.Row(i*n + kk)
						bv = bias.Row(j*n + kk)[head]
					} else {
						kRow = k.Row(kk*n + i)
						bv = bias.Row(kk*n + j)[head]
					}
					var dot float32
					for c := 0; c < hd; c++ {
						dot += qRow[off+c] * kRow[off+c]
					}
					lrow[kk] = dot*scale + bv
				}
			}
			_ = logits.SoftmaxRows() // always 2-d; cannot fail
			for j := 0; j < n; j++ {
				var dst []float32
				if starting {
					dst = upd.Row(i*n + j)
				} else {
					dst = upd.Row(j*n + i)
				}
				lrow := logits.Row(j)
				for kk := 0; kk < n; kk++ {
					w := lrow[kk]
					if w == 0 {
						continue
					}
					var vRow []float32
					if starting {
						vRow = v.Row(i*n + kk)
					} else {
						vRow = v.Row(kk*n + i)
					}
					for c := 0; c < hd; c++ {
						dst[off+c] += w * vRow[off+c]
					}
				}
			}
		}
	})
	if err := tensor.MatMulInto(ws.pairUpd, upd, b.attnOut, p); err != nil {
		return err
	}
	return tensor.AddAssign(s.Pair, ws.pairUpd, p)
}

// pairTransition applies the residual 2-layer MLP to every pair element.
func (b *Block) pairTransition(s *State, ws *workspace, p *parallel.Pool) error {
	if err := tensor.MatMulInto(ws.hidden, s.Pair, b.trans1, p); err != nil {
		return err
	}
	ws.hidden.ReLUWith(p)
	if err := tensor.MatMulInto(ws.pairUpd, ws.hidden, b.trans2, p); err != nil {
		return err
	}
	return tensor.AddAssign(s.Pair, ws.pairUpd, p)
}

// singleUpdate refreshes the single representation with self-attention
// biased by the pair representation's first head channel, then a residual
// add (the "Others" block in the paper's Figure 1).
func (b *Block) singleUpdate(s *State, ws *workspace, p *parallel.Pool) error {
	n, ds := s.N, b.cfg.SingleDim
	if err := tensor.MatMulInto(ws.sq, s.Single, b.singleQ, p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.sk, s.Single, b.singleK, p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.sv, s.Single, b.singleV, p); err != nil {
		return err
	}
	if err := tensor.Transpose2DInto(ws.skt, ws.sk, p); err != nil {
		return err
	}
	logits := ws.slogits
	if err := tensor.MatMulInto(logits, ws.sq, ws.skt, p); err != nil {
		return err
	}
	logits.ScaleWith(float32(1/math.Sqrt(float64(ds))), p)
	// Pair bias: channel 0 of z_ij.
	p.Run(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := logits.Row(i)
			for j := 0; j < n; j++ {
				row[j] += s.pairAt(i, j)[0]
			}
		}
	})
	if err := logits.SoftmaxRowsWith(p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.sattn, logits, ws.sv, p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.supd, ws.sattn, b.singleOut, p); err != nil {
		return err
	}
	if err := tensor.AddAssign(s.Single, ws.supd, p); err != nil {
		return err
	}
	return s.Single.LayerNormRowsWith(p)
}

// Stack runs nBlocks blocks (each with independent weights drawn from src)
// over the state, returning an error on shape problems. The pool governs
// the compute parallelism of every block (nil = serial); the workspace
// sync.Pool keeps the whole stack allocation-free past the first block.
func Stack(cfg Config, s *State, src *rng.Source, p *parallel.Pool) error {
	for i := 0; i < cfg.Blocks; i++ {
		blk, err := NewBlock(cfg, src.Split(uint64(i)))
		if err != nil {
			return err
		}
		if err := blk.Apply(s, p); err != nil {
			return err
		}
	}
	return nil
}
