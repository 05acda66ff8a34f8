// Package diffusion implements AlphaFold3's diffusion structure module —
// the generative replacement for AF2's structure module (paper Section
// II-C): an atom-level local-attention encoder, a token-level transformer
// whose global attention is the paper's headline inference bottleneck, an
// atom-level local-attention decoder, and the iterative denoising loop that
// re-runs the whole denoiser Samples×Steps times (AF3 samples multiple
// trajectories). The math runs for real at any size; analytical FLOP/byte
// formulas extrapolate cost to paper-scale inputs.
package diffusion

import (
	"fmt"
	"math"

	"afsysbench/internal/parallel"
	"afsysbench/internal/rng"
	"afsysbench/internal/tensor"
)

// Config sizes the module. Defaults mirror AF3's published architecture.
type Config struct {
	Samples int // independent diffusion trajectories (AF3 default 5)
	Steps   int // denoising steps per trajectory (AF3 default 200)

	TokenDim      int // token-level channel width
	AtomDim       int // atom-level channel width
	AtomsPerToken int // heavy atoms represented per residue token
	AtomWindow    int // local attention window (keys per query)

	GlobalLayers   int // token transformer depth
	LocalEncLayers int
	LocalDecLayers int

	Heads int
}

// DefaultConfig returns AF3-scale dimensions.
func DefaultConfig() Config {
	return Config{
		Samples:        5,
		Steps:          200,
		TokenDim:       768,
		AtomDim:        128,
		AtomsPerToken:  16,
		AtomWindow:     128,
		GlobalLayers:   24,
		LocalEncLayers: 4,
		LocalDecLayers: 3,
		Heads:          8,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Samples <= 0 || c.Steps <= 0:
		return fmt.Errorf("diffusion: Samples/Steps must be positive (%d, %d)", c.Samples, c.Steps)
	case c.TokenDim <= 0 || c.AtomDim <= 0:
		return fmt.Errorf("diffusion: dims must be positive (%d, %d)", c.TokenDim, c.AtomDim)
	case c.AtomsPerToken <= 0 || c.AtomWindow <= 0:
		return fmt.Errorf("diffusion: atom geometry must be positive (%d, %d)", c.AtomsPerToken, c.AtomWindow)
	case c.GlobalLayers <= 0 || c.LocalEncLayers <= 0 || c.LocalDecLayers <= 0:
		return fmt.Errorf("diffusion: layer counts must be positive")
	case c.Heads <= 0:
		return fmt.Errorf("diffusion: Heads must be positive")
	}
	return nil
}

// Evaluations returns the total denoiser invocations (Samples × Steps).
func (c Config) Evaluations() int { return c.Samples * c.Steps }

// LayerKind enumerates the profiled diffusion layer classes.
type LayerKind int

const (
	LocalAttnEncoder LayerKind = iota
	GlobalAttention
	LocalAttnDecoder
	CoordUpdate // the remaining "others": pooling, broadcast, coordinate MLPs
)

// String implements fmt.Stringer.
func (k LayerKind) String() string {
	switch k {
	case LocalAttnEncoder:
		return "local attn. (encoder)"
	case GlobalAttention:
		return "global attention"
	case LocalAttnDecoder:
		return "local attn. (decoder)"
	case CoordUpdate:
		return "coordinate update"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// Kinds lists the layer classes in pipeline order.
func Kinds() []LayerKind {
	return []LayerKind{LocalAttnEncoder, GlobalAttention, LocalAttnDecoder, CoordUpdate}
}

// LayerFlops returns FLOPs of one layer class for a full denoising run
// (all samples and steps) at n tokens.
func (c Config) LayerFlops(kind LayerKind, n int) float64 {
	evals := float64(c.Evaluations())
	nf := float64(n)
	atoms := nf * float64(c.AtomsPerToken)
	da := float64(c.AtomDim)
	dt := float64(c.TokenDim)
	w := float64(c.AtomWindow)
	localLayer := atoms * (8*da*da + 4*w*da) // projections + windowed logits/AV
	switch kind {
	case LocalAttnEncoder:
		return evals * float64(c.LocalEncLayers) * localLayer
	case LocalAttnDecoder:
		return evals * float64(c.LocalDecLayers) * localLayer
	case GlobalAttention:
		// Full attention over n tokens: quadratic logits/AV plus linear
		// projections. This is the term that scales worst with sequence
		// length and has the poorest locality (paper Section II-C).
		perLayer := 8*nf*dt*dt + 4*nf*nf*dt
		return evals * float64(c.GlobalLayers) * perLayer
	case CoordUpdate:
		// Atom pooling, token broadcast, coordinate MLP.
		return evals * (4*atoms*da + 2*atoms*da*3 + 2*nf*dt)
	default:
		return 0
	}
}

// LayerBytes returns memory traffic of one layer class for a full run.
// Global attention materializes the n×n attention matrix per layer per
// evaluation — the recurrent memory loads the paper calls out.
func (c Config) LayerBytes(kind LayerKind, n int) float64 {
	evals := float64(c.Evaluations())
	nf := float64(n)
	atoms := nf * float64(c.AtomsPerToken)
	const f32 = 4
	switch kind {
	case LocalAttnEncoder, LocalAttnDecoder:
		layers := float64(c.LocalEncLayers)
		if kind == LocalAttnDecoder {
			layers = float64(c.LocalDecLayers)
		}
		// Feature I/O plus the uncoalesced windowed key gather, which is
		// what actually limits these layers on hardware.
		perLayer := atoms * (float64(c.AtomDim)*6*f32 + float64(c.AtomWindow)*float64(c.AtomDim)*f32)
		return evals * layers * perLayer
	case GlobalAttention:
		return evals * float64(c.GlobalLayers) * (2*nf*nf*float64(c.Heads)*f32 + 6*nf*float64(c.TokenDim)*f32)
	case CoordUpdate:
		return evals * atoms * (3 + float64(c.AtomDim)) * 2 * f32
	default:
		return 0
	}
}

// Kernels returns GPU kernels launched per layer per evaluation.
func (c Config) Kernels(kind LayerKind) int {
	switch kind {
	case LocalAttnEncoder:
		return 10 * c.LocalEncLayers
	case LocalAttnDecoder:
		return 10 * c.LocalDecLayers
	case GlobalAttention:
		return 9 * c.GlobalLayers
	case CoordUpdate:
		return 7
	default:
		return 0
	}
}

// NoiseSchedule returns the per-step noise scale: a cosine-decay schedule
// from 1 toward ~0 over Steps steps.
func (c Config) NoiseSchedule() []float64 {
	s := make([]float64, c.Steps)
	for i := range s {
		frac := (float64(i) + 0.5) / float64(c.Steps)
		s[i] = math.Pow(math.Cos(frac*math.Pi/2), 2)
	}
	return s
}

// Denoiser holds the (random) weights of one denoiser network; it is
// reused across steps and samples, exactly like the trained model.
type Denoiser struct {
	cfg Config

	encQ, encK, encV, encOut []*tensor.Tensor // per local encoder layer
	decQ, decK, decV, decOut []*tensor.Tensor
	glbQ, glbK, glbV, glbOut []*tensor.Tensor
	atomToToken              *tensor.Tensor // AtomDim -> TokenDim
	tokenToAtom              *tensor.Tensor // TokenDim -> AtomDim
	coordHead                *tensor.Tensor // AtomDim -> 3
	coordEmbed               *tensor.Tensor // 3 -> AtomDim
}

// NewDenoiser builds a denoiser with deterministic random weights.
func NewDenoiser(cfg Config, src *rng.Source) (*Denoiser, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Denoiser{cfg: cfg}
	mk := func(rows, cols int) *tensor.Tensor {
		w := tensor.New(rows, cols)
		scale := 1 / math.Sqrt(float64(rows))
		for i := range w.Data {
			w.Data[i] = float32(src.NormFloat64() * scale)
		}
		return w
	}
	for i := 0; i < cfg.LocalEncLayers; i++ {
		d.encQ = append(d.encQ, mk(cfg.AtomDim, cfg.AtomDim))
		d.encK = append(d.encK, mk(cfg.AtomDim, cfg.AtomDim))
		d.encV = append(d.encV, mk(cfg.AtomDim, cfg.AtomDim))
		d.encOut = append(d.encOut, mk(cfg.AtomDim, cfg.AtomDim))
	}
	for i := 0; i < cfg.LocalDecLayers; i++ {
		d.decQ = append(d.decQ, mk(cfg.AtomDim, cfg.AtomDim))
		d.decK = append(d.decK, mk(cfg.AtomDim, cfg.AtomDim))
		d.decV = append(d.decV, mk(cfg.AtomDim, cfg.AtomDim))
		d.decOut = append(d.decOut, mk(cfg.AtomDim, cfg.AtomDim))
	}
	for i := 0; i < cfg.GlobalLayers; i++ {
		d.glbQ = append(d.glbQ, mk(cfg.TokenDim, cfg.TokenDim))
		d.glbK = append(d.glbK, mk(cfg.TokenDim, cfg.TokenDim))
		d.glbV = append(d.glbV, mk(cfg.TokenDim, cfg.TokenDim))
		d.glbOut = append(d.glbOut, mk(cfg.TokenDim, cfg.TokenDim))
	}
	d.atomToToken = mk(cfg.AtomDim, cfg.TokenDim)
	d.tokenToAtom = mk(cfg.TokenDim, cfg.AtomDim)
	d.coordHead = mk(cfg.AtomDim, 3)
	d.coordEmbed = mk(3, cfg.AtomDim)
	return d, nil
}

// localAttention applies windowed self-attention over atom features
// (A×AtomDim): each atom attends to the AtomWindow atoms centered on it.
// Atoms shard over the pool; every atom's window softmax stays inside one
// shard, so results match the serial path bitwise.
func (d *Denoiser) localAttention(feat *tensor.Tensor, wq, wk, wv, wout *tensor.Tensor, ws *workspace, p *parallel.Pool) error {
	a := feat.Shape[0]
	da := d.cfg.AtomDim
	if err := tensor.MatMulInto(ws.aq, feat, wq, p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.ak, feat, wk, p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.av, feat, wv, p); err != nil {
		return err
	}
	q, k, v, upd := ws.aq, ws.ak, ws.av, ws.actx
	half := d.cfg.AtomWindow / 2
	scale := float32(1 / math.Sqrt(float64(da)))
	p.Run(a, func(shard, alo, ahi int) {
		logits := ws.winLogits[shard] // exclusive to this shard
		for i := alo; i < ahi; i++ {
			lo, hi := i-half, i+half
			if lo < 0 {
				lo = 0
			}
			if hi >= a {
				hi = a - 1
			}
			qi := q.Row(i)
			var maxv float32 = -math.MaxFloat32
			for j := lo; j <= hi; j++ {
				kr := k.Row(j)
				var dot float32
				for c := 0; c < da; c++ {
					dot += qi[c] * kr[c]
				}
				dot *= scale
				logits[j-lo] = dot
				if dot > maxv {
					maxv = dot
				}
			}
			var sum float64
			for j := lo; j <= hi; j++ {
				e := math.Exp(float64(logits[j-lo] - maxv))
				logits[j-lo] = float32(e)
				sum += e
			}
			inv := float32(1 / sum)
			dst := upd.Row(i)
			for c := range dst {
				dst[c] = 0
			}
			for j := lo; j <= hi; j++ {
				w := logits[j-lo] * inv
				vr := v.Row(j)
				for c := 0; c < da; c++ {
					dst[c] += w * vr[c]
				}
			}
		}
	})
	// q is consumed; reuse its buffer for the output projection.
	if err := tensor.MatMulInto(ws.aq, upd, wout, p); err != nil {
		return err
	}
	if err := tensor.AddAssign(feat, ws.aq, p); err != nil {
		return err
	}
	return feat.LayerNormRowsWith(p)
}

// globalAttention applies full self-attention over token features.
func (d *Denoiser) globalAttention(tok *tensor.Tensor, wq, wk, wv, wout *tensor.Tensor, ws *workspace, p *parallel.Pool) error {
	if err := tensor.MatMulInto(ws.tq, tok, wq, p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.tk, tok, wk, p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.tv, tok, wv, p); err != nil {
		return err
	}
	if err := tensor.Transpose2DInto(ws.tkt, ws.tk, p); err != nil {
		return err
	}
	logits := ws.tlogits
	if err := tensor.MatMulInto(logits, ws.tq, ws.tkt, p); err != nil {
		return err
	}
	logits.ScaleWith(float32(1/math.Sqrt(float64(d.cfg.TokenDim))), p)
	if err := logits.SoftmaxRowsWith(p); err != nil {
		return err
	}
	if err := tensor.MatMulInto(ws.tctx, logits, ws.tv, p); err != nil {
		return err
	}
	// tq is consumed; reuse its buffer for the output projection.
	if err := tensor.MatMulInto(ws.tq, ws.tctx, wout, p); err != nil {
		return err
	}
	if err := tensor.AddAssign(tok, ws.tq, p); err != nil {
		return err
	}
	return tok.LayerNormRowsWith(p)
}

// DenoiseStep runs one denoiser evaluation: embed noisy coordinates into
// atom features, local-encode, pool to tokens, global-attend, broadcast
// back, local-decode, and emit a coordinate update. coords is (A×3) and is
// updated in place with the step's denoised estimate blended by sigma.
//
// The pool shards every stage over independent atoms/tokens (nil pool =
// serial, bitwise identical); scratch tensors recycle through a shared
// sync.Pool so the Samples×Steps denoising loop stays allocation-free.
func (d *Denoiser) DenoiseStep(coords *tensor.Tensor, sigma float64, p *parallel.Pool) error {
	a := coords.Shape[0]
	apt := d.cfg.AtomsPerToken
	if a%apt != 0 {
		return fmt.Errorf("diffusion: atom count %d not divisible by AtomsPerToken %d", a, apt)
	}
	n := a / apt

	ws := takeWorkspace(d.cfg, a, p.Workers())
	defer releaseWorkspace(ws)

	feat := ws.feat
	if err := tensor.MatMulInto(feat, coords, d.coordEmbed, p); err != nil {
		return err
	}
	for li := 0; li < d.cfg.LocalEncLayers; li++ {
		if err := d.localAttention(feat, d.encQ[li], d.encK[li], d.encV[li], d.encOut[li], ws, p); err != nil {
			return err
		}
	}

	// Pool atoms to tokens (mean) then project to token width. Each token
	// row is one shard-local reduction over its atoms.
	pooled := ws.pooled
	p.Run(n, func(_, tlo, thi int) {
		for t := tlo; t < thi; t++ {
			dst := pooled.Row(t)
			for c := range dst {
				dst[c] = 0
			}
			for j := 0; j < apt; j++ {
				src := feat.Row(t*apt + j)
				for c := range dst {
					dst[c] += src[c]
				}
			}
			inv := float32(1.0 / float64(apt))
			for c := range dst {
				dst[c] *= inv
			}
		}
	})
	tok := ws.tok
	if err := tensor.MatMulInto(tok, pooled, d.atomToToken, p); err != nil {
		return err
	}
	for li := 0; li < d.cfg.GlobalLayers; li++ {
		if err := d.globalAttention(tok, d.glbQ[li], d.glbK[li], d.glbV[li], d.glbOut[li], ws, p); err != nil {
			return err
		}
	}

	// Broadcast token context back to atoms (each token owns its atom rows).
	back := ws.back
	if err := tensor.MatMulInto(back, tok, d.tokenToAtom, p); err != nil {
		return err
	}
	p.Run(n, func(_, tlo, thi int) {
		for t := tlo; t < thi; t++ {
			src := back.Row(t)
			for j := 0; j < apt; j++ {
				dst := feat.Row(t*apt + j)
				for c := range dst {
					dst[c] += src[c]
				}
			}
		}
	})
	for li := 0; li < d.cfg.LocalDecLayers; li++ {
		if err := d.localAttention(feat, d.decQ[li], d.decK[li], d.decV[li], d.decOut[li], ws, p); err != nil {
			return err
		}
	}

	if err := tensor.MatMulInto(ws.coordUpd, feat, d.coordHead, p); err != nil {
		return err
	}
	// Blend: coordinates move toward the denoised estimate, with the step
	// size shrinking as sigma decays. Per-atom updates are independent.
	blend := float32(0.1 * sigma)
	cd, ud := coords.Data, ws.coordUpd.Data
	p.Run(len(cd), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			cd[i] += blend * float32(math.Tanh(float64(ud[i])))
		}
	})
	return nil
}

// SampleWithConfidence runs the full denoising trajectory from
// Gaussian-noise initial coordinates for n tokens and returns the final
// (A×3) coordinates with a per-token confidence in (0,1]: tokens whose
// atoms have stopped moving over the trajectory's final quarter are
// confident (the convergence analog of AF3's pLDDT head; with random
// weights only the convergence signal is meaningful).
func (d *Denoiser) SampleWithConfidence(n int, src *rng.Source, p *parallel.Pool) (*tensor.Tensor, []float64, error) {
	apt := d.cfg.AtomsPerToken
	a := n * apt
	coords := tensor.New(a, 3)
	for i := range coords.Data {
		coords.Data[i] = float32(src.NormFloat64())
	}
	schedule := d.cfg.NoiseSchedule()
	tailStart := len(schedule) * 3 / 4
	moveSq := make([]float64, n)
	tailSteps := 0
	prev := make([]float32, len(coords.Data))
	for si, sigma := range schedule {
		copy(prev, coords.Data)
		if err := d.DenoiseStep(coords, sigma, p); err != nil {
			return nil, nil, err
		}
		if si >= tailStart {
			tailSteps++
			for atom := 0; atom < a; atom++ {
				var dsq float64
				for c := 0; c < 3; c++ {
					diff := float64(coords.Data[atom*3+c] - prev[atom*3+c])
					dsq += diff * diff
				}
				moveSq[atom/apt] += dsq
			}
		}
	}
	conf := make([]float64, n)
	for t := range conf {
		rms := 0.0
		if tailSteps > 0 {
			rms = math.Sqrt(moveSq[t] / float64(tailSteps*apt))
		}
		conf[t] = math.Exp(-20 * rms)
	}
	return coords, conf, nil
}
