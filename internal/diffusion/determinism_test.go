package diffusion

import (
	"math"
	"runtime"
	"testing"

	"afsysbench/internal/parallel"
	"afsysbench/internal/rng"
)

// denoiseWith runs a fresh deterministic sampling trajectory on a pool of
// the given worker count and returns the final coordinates and confidence.
func denoiseWith(t *testing.T, workers int) ([]float32, []float64) {
	t.Helper()
	cfg := Config{
		Samples: 1, Steps: 6, TokenDim: 16, AtomDim: 8, AtomsPerToken: 4,
		AtomWindow: 6, GlobalLayers: 2, LocalEncLayers: 2, LocalDecLayers: 2, Heads: 2,
	}
	src := rng.New(123)
	d, err := NewDenoiser(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	var p *parallel.Pool
	if workers > 1 {
		p = parallel.New(workers)
		defer p.Close()
	}
	coords, conf, err := d.SampleWithConfidence(9, src.Split(1), p)
	if err != nil {
		t.Fatal(err)
	}
	return coords.Data, conf
}

// TestDenoiseBitwiseDeterministicAcrossWorkerCounts mirrors the pairformer
// invariant for the diffusion path: per-atom and per-token shards never
// split a reduction, so a whole sampling trajectory is bitwise identical
// at any worker count.
func TestDenoiseBitwiseDeterministicAcrossWorkerCounts(t *testing.T) {
	refCoords, refConf := denoiseWith(t, 1)
	for _, w := range []int{2, 3, runtime.NumCPU(), 8} {
		if w < 2 {
			continue
		}
		coords, conf := denoiseWith(t, w)
		for i := range refCoords {
			if math.Float32bits(coords[i]) != math.Float32bits(refCoords[i]) {
				t.Fatalf("workers=%d: coords[%d] = %x, serial %x",
					w, i, math.Float32bits(coords[i]), math.Float32bits(refCoords[i]))
			}
		}
		for i := range refConf {
			if conf[i] != refConf[i] {
				t.Fatalf("workers=%d: conf[%d] = %v, serial %v", w, i, conf[i], refConf[i])
			}
		}
	}
}

// TestDenoiseStepReusesWorkspace asserts the steady-state allocation claim
// for the denoising loop.
func TestDenoiseStepReusesWorkspace(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts only meaningful without -race")
	}
	cfg := Config{
		Samples: 1, Steps: 1, TokenDim: 16, AtomDim: 8, AtomsPerToken: 4,
		AtomWindow: 6, GlobalLayers: 1, LocalEncLayers: 1, LocalDecLayers: 1, Heads: 2,
	}
	src := rng.New(9)
	d, err := NewDenoiser(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	coords, _, err := d.SampleWithConfidence(8, src.Split(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := d.DenoiseStep(coords, 0.5, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("steady-state DenoiseStep allocates %.0f objects per run, want <= 8", allocs)
	}
}
