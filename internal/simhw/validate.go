package simhw

import (
	"fmt"
	"math"

	"afsysbench/internal/metering"
)

// Cross-validation between the two cache models. The analytical model
// prices work in O(1); the trace simulator replays a synthesized address
// stream through real set-associative LRU caches. ValidateFuncWork runs
// both on the same access statistics and reports the per-level miss
// fractions side by side — the accuracy arm of the cache-model ablation and
// a guard against the analytical constants drifting away from concrete
// cache behavior.

// ModelComparison holds both models' per-reference miss probabilities at
// each level (misses at that level divided by total references issued) for
// one workload description. Per-reference probabilities compare cleanly
// across regimes, unlike per-arrival rates, which degenerate to ~1 when a
// level sees only cold traffic.
type ModelComparison struct {
	AnalyticL1, AnalyticL2, AnalyticLLC float64
	TraceL1, TraceL2, TraceLLC          float64
}

// MaxDivergence returns the largest absolute per-level difference.
func (c ModelComparison) MaxDivergence() float64 {
	return max(math.Abs(c.AnalyticL1-c.TraceL1), math.Abs(c.AnalyticL2-c.TraceL2), math.Abs(c.AnalyticLLC-c.TraceLLC))
}

// ValidateFuncWork compares the analytical hot-set miss chain against a
// trace-driven replay for a single-threaded workload with the given hot
// footprint and pattern, on the given cache geometry. refs is the number of
// hot references replayed (more refs, tighter estimate).
func ValidateFuncWork(hotBytes uint64, pattern metering.Pattern, refs int, l1, l2, llc int, l1Factor float64) (ModelComparison, error) {
	if hotBytes == 0 || refs <= 0 {
		return ModelComparison{}, fmt.Errorf("simhw: validation needs a hot set and references")
	}
	var cmp ModelComparison

	// Analytical chain, mirroring simulateFunc: per-level arrival miss
	// fractions multiplied down to per-reference probabilities.
	l1F := patternFactor(pattern, l1SeqFactor, l1StrideFactor, l1RandFactor) * l1Factor
	m1 := capacityMissFrac(hotBytes, uint64(l1), l1F)
	l2F := patternFactor(pattern, l2SeqFactor, l2StrideFactor, l2RandFactor)
	m2 := capacityMissFrac(hotBytes, uint64(l2), l2F)
	m3 := 0.0
	if hotBytes > uint64(llc) {
		m3 = llcHotMissCap
	}
	cmp.AnalyticL1 = m1
	cmp.AnalyticL2 = m1 * m2
	cmp.AnalyticLLC = m1 * m2 * m3

	// Trace-driven replay through concrete LRU caches: one warmup pass
	// over the hot set (compulsory misses excluded), then the measured
	// steady-state references.
	h := NewHierarchy(l1, l2, llc)
	tr := NewSyntheticTrace(1, hotBytes, pattern)
	warmup := int(hotBytes/cacheLine) * 2
	for i := 0; i < warmup; i++ {
		h.Access(tr.NextHot())
	}
	h.Reset()
	for i := 0; i < refs; i++ {
		h.Access(tr.NextHot())
	}
	n := float64(refs)
	cmp.TraceL1 = float64(h.L1.Miss) / n
	cmp.TraceL2 = float64(h.L2.Miss) / n
	cmp.TraceLLC = float64(h.LLC.Miss) / n
	return cmp, nil
}

// ValidateRegimes sweeps the three capacity regimes (fits in L2, fits in
// LLC, exceeds LLC) for a pattern and returns the worst LLC-level
// divergence — the summary number the ablation reports.
func ValidateRegimes(pattern metering.Pattern, l1, l2, llc int, l1Factor float64) (float64, error) {
	regimes := []uint64{
		uint64(l2) / 2,  // hot set fits in L2
		uint64(llc) / 2, // fits in LLC only
		uint64(llc) * 3, // exceeds everything
	}
	worst := 0.0
	for _, hot := range regimes {
		cmp, err := ValidateFuncWork(hot, pattern, 200_000, l1, l2, llc, l1Factor)
		if err != nil {
			return 0, err
		}
		if d := math.Abs(cmp.AnalyticLLC - cmp.TraceLLC); d > worst {
			worst = d
		}
	}
	return worst, nil
}
