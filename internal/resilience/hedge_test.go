package resilience

import (
	"testing"
	"time"
)

func TestHedgeEstimator(t *testing.T) {
	if h := NewHedgeEstimator(HedgeConfig{}); h != nil {
		t.Fatal("disabled config built an estimator")
	}
	// A nil estimator is "hedging off": both calls are safe no-ops.
	var off *HedgeEstimator
	off.Observe(time.Second)
	if got := off.Budget(); got != 0 {
		t.Fatalf("nil estimator budget = %v", got)
	}

	// Defaults: p95, factor 2, armed at 8 samples. Samples arrive out of
	// order; the percentile is nearest-rank over the sorted window.
	h := NewHedgeEstimator(HedgeConfig{Enabled: true})
	for i, ms := range []int{7, 3, 1, 6, 2, 5, 4} {
		h.Observe(time.Duration(ms) * time.Millisecond)
		if got := h.Budget(); got != 0 {
			t.Fatalf("armed after %d samples (budget %v), want MinSamples 8", i+1, got)
		}
	}
	h.Observe(8 * time.Millisecond)
	// n = 8: ceil(0.95×8) = 8th of 8 -> 8ms, × 2.
	if got, want := h.Budget(), 16*time.Millisecond; got != want {
		t.Fatalf("budget at n=8 = %v, want %v", got, want)
	}
	for ms := 9; ms <= 100; ms++ {
		h.Observe(time.Duration(ms) * time.Millisecond)
	}
	// n = 100: the 95th of 100 -> 95ms, × 2.
	if got, want := h.Budget(), 190*time.Millisecond; got != want {
		t.Fatalf("budget at n=100 = %v, want %v", got, want)
	}

	// n = 1 with MinSamples 1: index clamps to the only sample; Factor
	// scales it.
	one := NewHedgeEstimator(HedgeConfig{Enabled: true, Percentile: 50, Factor: 0.5, MinSamples: 1})
	one.Observe(10 * time.Millisecond)
	if got, want := one.Budget(), 5*time.Millisecond; got != want {
		t.Fatalf("budget at n=1 = %v, want %v", got, want)
	}

	// The window trims to its newer half once it passes 4096 samples:
	// after 4097 observations of 1..4097 µs, 2048 remain (2050..4097), so
	// the minimum (p→0 clamps to the first rank) is 2050µs.
	w := NewHedgeEstimator(HedgeConfig{Enabled: true, Percentile: 0.001, Factor: 1, MinSamples: 1})
	for us := 1; us <= 4097; us++ {
		w.Observe(time.Duration(us) * time.Microsecond)
	}
	if got := len(w.samples); got != 2048 {
		t.Fatalf("window after 4097 samples = %d, want 2048", got)
	}
	if got, want := w.Budget(), 2050*time.Microsecond; got != want {
		t.Fatalf("oldest retained sample = %v, want %v", got, want)
	}
}
