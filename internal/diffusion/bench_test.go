package diffusion

import (
	"testing"

	"afsysbench/internal/parallel"
	"afsysbench/internal/rng"
	"afsysbench/internal/tensor"
)

// benchDenoise measures one full denoiser evaluation (embed, local encode,
// pool, global attend, broadcast, local decode, blend) at 128 tokens.
func benchDenoise(b *testing.B, p *parallel.Pool) {
	cfg := Config{
		Samples: 1, Steps: 1, TokenDim: 32, AtomDim: 16, AtomsPerToken: 4,
		AtomWindow: 12, GlobalLayers: 2, LocalEncLayers: 2, LocalDecLayers: 2, Heads: 2,
	}
	src := rng.New(5)
	d, err := NewDenoiser(cfg, src)
	if err != nil {
		b.Fatal(err)
	}
	const tokens = 128
	coords := tensor.New(tokens*cfg.AtomsPerToken, 3)
	nsrc := src.Split(1)
	for i := range coords.Data {
		coords.Data[i] = float32(nsrc.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DenoiseStep(coords, 0.5, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiffusionDenoise(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchDenoise(b, nil) })
	b.Run("parallel", func(b *testing.B) {
		p := parallel.ForWorkers(parallel.DefaultWorkers())
		benchDenoise(b, p)
	})
}
