// Pool-aware kernels: every hot-path operation has an Into/With form that
// writes into caller-owned storage and shards its outer loop over a
// parallel.Pool. Sharding is always over independent output rows or
// elements — never across a reduction — so results are bitwise identical
// to the serial kernels at any worker count (the determinism rule the
// Pairformer/diffusion golden tests depend on). A nil pool runs inline,
// which is also the serial baseline the benchmarks compare against.
//
// Each kernel's loop body lives in a named range helper; the serial path
// calls it directly so no closure is allocated (a func literal handed to
// Pool.Run always escapes), keeping steady-state serial execution
// allocation-free.
package tensor

import (
	"fmt"

	"afsysbench/internal/parallel"
)

// Inner-loop blocking for MatMulInto: one kC×jC tile of b stays
// cache-resident while a shard streams its output rows through it.
const (
	matmulKC = 64
	matmulJC = 512
)

// MatMulInto computes a (m×k) · b (k×n) into dst (m×n), sharding output
// rows over p. dst may be a reused scratch tensor; it is overwritten, and
// must not alias a or b.
func MatMulInto(dst, a, b *Tensor, p *parallel.Pool) error {
	if a.Dims() != 2 || b.Dims() != 2 {
		return fmt.Errorf("tensor: MatMul needs 2-d operands, got %v x %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: MatMul inner dims %d vs %d", k, k2)
	}
	if dst.Dims() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		return fmt.Errorf("tensor: MatMul dst shape %v, want [%d %d]", dst.Shape, m, n)
	}
	if p.Serial() {
		matmulRows(dst, a, b, 0, m)
		return nil
	}
	p.Run(m, func(_, lo, hi int) { matmulRows(dst, a, b, lo, hi) })
	return nil
}

func matmulRows(dst, a, b *Tensor, lo, hi int) {
	k, n := a.Shape[1], b.Shape[1]
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
		for kb := 0; kb < k; kb += matmulKC {
			kend := min(kb+matmulKC, k)
			for jb := 0; jb < n; jb += matmulJC {
				jend := min(jb+matmulJC, n)
				ob := orow[jb:jend]
				for kk := kb; kk < kend; kk++ {
					av := arow[kk]
					if av == 0 {
						continue
					}
					brow := b.Data[kk*n+jb : kk*n+jend]
					for j, bv := range brow {
						ob[j] += av * bv
					}
				}
			}
		}
	}
}

// AddAssign adds src into dst elementwise (dst += src), sharded over p.
func AddAssign(dst, src *Tensor, p *parallel.Pool) error {
	if !SameShape(dst, src) {
		return fmt.Errorf("tensor: AddAssign shape mismatch %v vs %v", dst.Shape, src.Shape)
	}
	d, s := dst.Data, src.Data
	if p.Serial() {
		addSpan(d, s, 0, len(d))
		return nil
	}
	p.Run(len(d), func(_, lo, hi int) { addSpan(d, s, lo, hi) })
	return nil
}

func addSpan(d, s []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		d[i] += s[i]
	}
}

// MulAssign multiplies dst by src elementwise (dst ⊙= src), sharded over p.
func MulAssign(dst, src *Tensor, p *parallel.Pool) error {
	if !SameShape(dst, src) {
		return fmt.Errorf("tensor: MulAssign shape mismatch %v vs %v", dst.Shape, src.Shape)
	}
	d, s := dst.Data, src.Data
	if p.Serial() {
		mulSpan(d, s, 0, len(d))
		return nil
	}
	p.Run(len(d), func(_, lo, hi int) { mulSpan(d, s, lo, hi) })
	return nil
}

func mulSpan(d, s []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		d[i] *= s[i]
	}
}

// ScaleWith multiplies in place by s, sharded over p, and returns t.
func (t *Tensor) ScaleWith(s float32, p *parallel.Pool) *Tensor {
	d := t.Data
	if p.Serial() {
		scaleSpan(d, s)
		return t
	}
	p.Run(len(d), func(_, lo, hi int) { scaleSpan(d[lo:hi], s) })
	return t
}

func scaleSpan(d []float32, s float32) {
	for i := range d {
		d[i] *= s
	}
}

// SigmoidWith applies the logistic function in place, sharded over p.
func (t *Tensor) SigmoidWith(p *parallel.Pool) *Tensor {
	d := t.Data
	if p.Serial() {
		sigmoidSpan(d)
		return t
	}
	p.Run(len(d), func(_, lo, hi int) { sigmoidSpan(d[lo:hi]) })
	return t
}

// ReLUWith applies max(0,x) in place, sharded over p.
func (t *Tensor) ReLUWith(p *parallel.Pool) *Tensor {
	d := t.Data
	if p.Serial() {
		reluSpan(d)
		return t
	}
	p.Run(len(d), func(_, lo, hi int) { reluSpan(d[lo:hi]) })
	return t
}

func reluSpan(d []float32) {
	for i := range d {
		if d[i] < 0 {
			d[i] = 0
		}
	}
}

// ZeroWith clears every element, sharded over p, and returns t.
func (t *Tensor) ZeroWith(p *parallel.Pool) *Tensor {
	d := t.Data
	if p.Serial() {
		zeroSpan(d)
		return t
	}
	p.Run(len(d), func(_, lo, hi int) { zeroSpan(d[lo:hi]) })
	return t
}

func zeroSpan(d []float32) {
	for i := range d {
		d[i] = 0
	}
}

// SoftmaxRowsWith applies the row softmax of SoftmaxRows with rows sharded
// over p (each row's reduction stays inside one shard).
func (t *Tensor) SoftmaxRowsWith(p *parallel.Pool) error {
	if t.Dims() != 2 {
		return fmt.Errorf("tensor: SoftmaxRows needs 2-d, got %v", t.Shape)
	}
	if p.Serial() {
		softmaxRows(t, 0, t.Shape[0])
		return nil
	}
	p.Run(t.Shape[0], func(_, lo, hi int) { softmaxRows(t, lo, hi) })
	return nil
}

func softmaxRows(t *Tensor, lo, hi int) {
	n := t.Shape[1]
	for i := lo; i < hi; i++ {
		softmaxRow(t.Data[i*n : (i+1)*n])
	}
}

// LayerNormRowsWith normalizes each row of a 2-d tensor to zero mean and
// unit variance (eps-stabilized), in place, with rows sharded over p.
func (t *Tensor) LayerNormRowsWith(p *parallel.Pool) error {
	if t.Dims() != 2 {
		return fmt.Errorf("tensor: LayerNormRows needs 2-d, got %v", t.Shape)
	}
	if p.Serial() {
		layerNormRows(t, 0, t.Shape[0])
		return nil
	}
	p.Run(t.Shape[0], func(_, lo, hi int) { layerNormRows(t, lo, hi) })
	return nil
}

func layerNormRows(t *Tensor, lo, hi int) {
	n := t.Shape[1]
	for i := lo; i < hi; i++ {
		layerNormRow(t.Data[i*n : (i+1)*n])
	}
}

// Transpose2DInto writes the transpose of a (m×n) into dst (n×m),
// sharding the output rows over p.
func Transpose2DInto(dst, a *Tensor, p *parallel.Pool) error {
	if a.Dims() != 2 {
		return fmt.Errorf("tensor: Transpose2D needs 2-d, got %v", a.Shape)
	}
	m, n := a.Shape[0], a.Shape[1]
	if dst.Dims() != 2 || dst.Shape[0] != n || dst.Shape[1] != m {
		return fmt.Errorf("tensor: Transpose2D dst shape %v, want [%d %d]", dst.Shape, n, m)
	}
	if p.Serial() {
		transposeRows(dst, a, 0, n)
		return nil
	}
	p.Run(n, func(_, lo, hi int) { transposeRows(dst, a, lo, hi) })
	return nil
}

func transposeRows(dst, a *Tensor, lo, hi int) {
	m, n := a.Shape[0], a.Shape[1]
	for j := lo; j < hi; j++ {
		drow := dst.Data[j*m : (j+1)*m]
		for i := 0; i < m; i++ {
			drow[i] = a.Data[i*n+j]
		}
	}
}
