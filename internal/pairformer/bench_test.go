package pairformer

import (
	"testing"

	"afsysbench/internal/parallel"
	"afsysbench/internal/rng"
)

// benchTriangleAttention measures the dominant O(N³) kernel at N=128 with
// the reduced default head geometry.
func benchTriangleAttention(b *testing.B, p *parallel.Pool) {
	cfg := Config{
		Blocks: 1, PairDim: 16, SingleDim: 32, Heads: 2, HeadDim: 8,
		TriHidden: 16, TransMult: 2,
	}
	src := rng.New(3)
	blk, err := NewBlock(cfg, src)
	if err != nil {
		b.Fatal(err)
	}
	const n = 128
	s := RandomState(cfg, n, src.Split(1))
	ws := takeWorkspace(cfg, n, p.Workers())
	defer releaseWorkspace(ws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := blk.triangleAttention(s, true, ws, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTriangleAttention(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchTriangleAttention(b, nil) })
	b.Run("parallel", func(b *testing.B) {
		p := parallel.ForWorkers(parallel.DefaultWorkers())
		benchTriangleAttention(b, p)
	})
}

// BenchmarkBlockApply measures a full block (all six layers) at a smaller
// N, tracking the steady-state allocation claim end to end.
func BenchmarkBlockApply(b *testing.B) {
	cfg := Config{
		Blocks: 1, PairDim: 16, SingleDim: 32, Heads: 2, HeadDim: 8,
		TriHidden: 16, TransMult: 2,
	}
	src := rng.New(3)
	blk, err := NewBlock(cfg, src)
	if err != nil {
		b.Fatal(err)
	}
	s := RandomState(cfg, 64, src.Split(1))
	run := func(b *testing.B, p *parallel.Pool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := blk.Apply(s, p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, nil) })
	b.Run("parallel", func(b *testing.B) { run(b, parallel.ForWorkers(parallel.DefaultWorkers())) })
}
