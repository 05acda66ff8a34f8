// Package tensor is a minimal dense float32 tensor library backing the
// Pairformer and Diffusion module implementations: shape algebra, matmul,
// softmax, layer normalization and elementwise kernels. The inference
// modules run this math for real at reduced dimensions, and scale measured
// structure to paper-scale sizes with analytical FLOP formulas.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor of the given shape. Panics on non-positive
// dimensions — shapes are programmer input, not user input.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// Len returns the element count.
func (t *Tensor) Len() int { return len(t.Data) }

// Dims returns the number of axes.
func (t *Tensor) Dims() int { return len(t.Shape) }

// At returns the element at the given indices (2D/3D fast paths).
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: %d indices for %d-d tensor", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for axis %d (size %d)", x, i, t.Shape[i]))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// MatMulFlops returns the FLOP count of a (m×k)·(k×n) product.
func MatMulFlops(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) }

func sigmoidSpan(d []float32) {
	for i, v := range d {
		d[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

// SoftmaxRows applies a numerically stable softmax along the last axis of a
// 2-d tensor, in place.
func (t *Tensor) SoftmaxRows() error { return t.SoftmaxRowsWith(nil) }

func softmaxRow(row []float32) {
	maxv := row[0]
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range row {
		e := math.Exp(float64(v - maxv))
		row[j] = float32(e)
		sum += e
	}
	if sum == 0 {
		return
	}
	inv := float32(1 / sum)
	for j := range row {
		row[j] *= inv
	}
}

func layerNormRow(row []float32) {
	const eps = 1e-5
	n := len(row)
	var mean float64
	for _, v := range row {
		mean += float64(v)
	}
	mean /= float64(n)
	var variance float64
	for _, v := range row {
		d := float64(v) - mean
		variance += d * d
	}
	variance /= float64(n)
	inv := 1 / math.Sqrt(variance+eps)
	for j, v := range row {
		row[j] = float32((float64(v) - mean) * inv)
	}
}

// Row returns a view of row i of a 2-d tensor (shared storage).
func (t *Tensor) Row(i int) []float32 {
	n := t.Shape[len(t.Shape)-1]
	return t.Data[i*n : (i+1)*n]
}
