package metering_test

import (
	"math/rand"
	"testing"

	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
)

// TestByFuncMatchesMapWalkOnSamples holds ByFunc to the map-walk oracle on
// the streams the machine model really reads: every sample's per-worker
// accumulators at 1, 2 and 4 threads, as the MSA stage links them, and the
// same events re-cut into runs at seeded random points and linked again.
// A float that moves in its last bit fails here before it moves a modeled
// second.
func TestByFuncMatchesMapWalkOnSamples(t *testing.T) {
	s, err := core.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(29))
	streams := 0
	for _, in := range inputs.Samples() {
		for _, threads := range []int{1, 2, 4} {
			res, err := s.MSAResult(in, threads)
			if err != nil {
				t.Fatal(err)
			}
			for w, acc := range res.Workers {
				evs := acc.Flat()
				recut := &metering.Accumulator{}
				for lo := 0; lo < len(evs); {
					hi := lo + 1 + r.Intn(len(evs)-lo)
					recut.Link(&metering.Accumulator{Events: evs[lo:hi]})
					lo = hi
				}
				for _, a := range []*metering.Accumulator{acc, recut} {
					if d := metering.DiffByFunc(a.ByFunc(), metering.ByFuncMapWalk(a)); d != "" {
						t.Fatalf("%s at %d threads, worker %d: %s", in.Name, threads, w, d)
					}
				}
				if len(evs) > 0 {
					streams++
				}
			}
		}
	}
	if streams == 0 {
		t.Fatal("no sample produced a worker stream; the comparison is vacuous")
	}
}
