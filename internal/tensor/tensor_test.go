package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"afsysbench/internal/rng"
)

func randTensor(seed uint64, shape ...int) *Tensor {
	r := rng.New(seed)
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(r.NormFloat64())
	}
	return t
}

// fromData wraps data, row-major, in a tensor of the given shape.
func fromData(data []float32, shape ...int) *Tensor {
	return &Tensor{Shape: shape, Data: data}
}

// matMul is a·b into a new tensor, through MatMulInto's serial path.
func matMul(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[1])
	if err := MatMulInto(out, a, b, nil); err != nil {
		panic(err)
	}
	return out
}

func TestNewAndIndexing(t *testing.T) {
	a := New(2, 3)
	if a.Len() != 6 || a.Dims() != 2 {
		t.Fatal("shape accounting wrong")
	}
	a.Data[1*3+2] = 5
	if a.At(1, 2) != 5 {
		t.Error("At does not read row-major storage")
	}
	if a.At(0, 0) != 0 {
		t.Error("zero init failed")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(2, 0)
}

func TestIndexPanics(t *testing.T) {
	a := New(2, 2)
	for _, fn := range []func(){
		func() { a.At(2, 0) },
		func() { a.At(0) },
		func() { a.At(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad index did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestMatMulKnown(t *testing.T) {
	a := fromData([]float32{1, 2, 3, 4}, 2, 2)
	b := fromData([]float32{5, 6, 7, 8}, 2, 2)
	c := matMul(a, b)
	want := []float32{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Errorf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulErrors(t *testing.T) {
	if err := MatMulInto(New(2, 3), New(2, 3), New(2, 3), nil); err == nil {
		t.Error("inner mismatch accepted")
	}
	if err := MatMulInto(New(2, 2), New(2), New(2, 2), nil); err == nil {
		t.Error("1-d operand accepted")
	}
	if err := MatMulInto(New(3, 2), New(2, 2), New(2, 2), nil); err == nil {
		t.Error("dst shape mismatch accepted")
	}
}

func TestMatMulIdentity(t *testing.T) {
	a := randTensor(1, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Data[i*4+i] = 1
	}
	c := matMul(a, id)
	for i := range a.Data {
		if math.Abs(float64(c.Data[i]-a.Data[i])) > 1e-6 {
			t.Fatalf("A*I != A at %d", i)
		}
	}
}

func TestMatMulFlops(t *testing.T) {
	if MatMulFlops(2, 3, 4) != 48 {
		t.Error("flop formula wrong")
	}
}

func TestAddMul(t *testing.T) {
	s := fromData([]float32{1, 2}, 2)
	b := fromData([]float32{3, 4}, 2)
	if err := AddAssign(s, b, nil); err != nil || s.Data[0] != 4 || s.Data[1] != 6 {
		t.Errorf("AddAssign wrong: %v %v", s, err)
	}
	p := fromData([]float32{1, 2}, 2)
	if err := MulAssign(p, b, nil); err != nil || p.Data[0] != 3 || p.Data[1] != 8 {
		t.Errorf("MulAssign wrong: %v %v", p, err)
	}
	if b.Data[0] != 3 {
		t.Error("src mutated")
	}
	if err := AddAssign(s, New(3), nil); err == nil {
		t.Error("shape mismatch accepted")
	}
	if err := MulAssign(p, New(3), nil); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestScaleSigmoidReLU(t *testing.T) {
	a := fromData([]float32{-2, 0, 2}, 3)
	a.ScaleWith(2, nil)
	if a.Data[0] != -4 || a.Data[2] != 4 {
		t.Error("Scale wrong")
	}
	b := fromData([]float32{0}, 1)
	b.SigmoidWith(nil)
	if math.Abs(float64(b.Data[0])-0.5) > 1e-6 {
		t.Error("Sigmoid(0) != 0.5")
	}
	c := fromData([]float32{-1, 2}, 2)
	c.ReLUWith(nil)
	if c.Data[0] != 0 || c.Data[1] != 2 {
		t.Error("ReLU wrong")
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := randTensor(2, 5, 8)
	if err := a.SoftmaxRows(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var sum float64
		for _, v := range a.Row(i) {
			if v < 0 {
				t.Fatal("negative softmax output")
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	if err := New(2).SoftmaxRows(); err == nil {
		t.Error("1-d softmax accepted")
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	a := fromData([]float32{1000, 1001, 1002}, 1, 3)
	if err := a.SoftmaxRows(); err != nil {
		t.Fatal(err)
	}
	for _, v := range a.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflowed on large logits")
		}
	}
}

func TestLayerNormRows(t *testing.T) {
	a := randTensor(3, 4, 16)
	if err := a.LayerNormRowsWith(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		var mean, variance float64
		for _, v := range a.Row(i) {
			mean += float64(v)
		}
		mean /= 16
		for _, v := range a.Row(i) {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= 16
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
			t.Errorf("row %d: mean %v var %v", i, mean, variance)
		}
	}
	if err := New(2).LayerNormRowsWith(nil); err == nil {
		t.Error("1-d layernorm accepted")
	}
}

func TestTranspose(t *testing.T) {
	a := fromData([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := New(3, 2)
	if err := Transpose2DInto(b, a, nil); err != nil {
		t.Fatal(err)
	}
	if b.At(2, 1) != a.At(1, 2) {
		t.Error("transpose values wrong")
	}
	if err := Transpose2DInto(New(2, 3), a, nil); err == nil {
		t.Error("dst shape mismatch accepted")
	}
	if err := Transpose2DInto(New(2), New(2), nil); err == nil {
		t.Error("1-d transpose accepted")
	}
}

func TestQuickMatMulDistributesOverAdd(t *testing.T) {
	// A*(B+C) == A*B + A*C within float tolerance.
	f := func(seed uint64) bool {
		a := randTensor(seed, 4, 5)
		b := randTensor(seed+1, 5, 3)
		c := randTensor(seed+2, 5, 3)
		ab, ac := matMul(a, b), matMul(a, c)
		if AddAssign(b, c, nil) != nil || AddAssign(ab, ac, nil) != nil {
			return false
		}
		left, right := matMul(a, b), ab
		for i := range left.Data {
			if math.Abs(float64(left.Data[i]-right.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%16 + 1
		a := randTensor(seed, 3, n)
		if err := a.SoftmaxRows(); err != nil {
			return false
		}
		for i := 0; i < 3; i++ {
			var sum float64
			for _, v := range a.Row(i) {
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
