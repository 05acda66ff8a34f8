package tensor

import (
	"testing"

	"afsysbench/internal/parallel"
)

// benchMatMul exercises the pairformer-shaped product (N²×d)·(d×d) at
// N=128 — the hot shape of a triangle-layer projection.
func benchMatMul(b *testing.B, p *parallel.Pool) {
	const n, d = 128, 32
	a := New(n*n, d)
	w := New(d, d)
	for i := range a.Data {
		a.Data[i] = float32(i%17) * 0.25
	}
	for i := range w.Data {
		w.Data[i] = float32(i%13) * 0.125
	}
	dst := New(n*n, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulInto(dst, a, w, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchMatMul(b, nil) })
	b.Run("parallel", func(b *testing.B) {
		p := parallel.ForWorkers(parallel.DefaultWorkers())
		benchMatMul(b, p)
	})
}
