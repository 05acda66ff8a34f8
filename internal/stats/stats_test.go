package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestStdDevAndCV(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Error("single-element stddev should be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); !approx(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := CV(xs); !approx(got, 2.0/5.0, 1e-12) {
		t.Errorf("CV = %v, want 0.4", got)
	}
	if CV([]float64{0, 0}) != 0 {
		t.Error("CV with zero mean should be 0")
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Max(xs) != 5 {
		t.Error("Max wrong")
	}
	if got := Median(xs); got != 3 {
		t.Errorf("Median odd = %v, want 3", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if Median(nil) != 0 {
		t.Error("Median(nil) != 0")
	}
}

func TestQuickCVNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			// Map into a bounded positive range to avoid float overflow.
			xs[i] = math.Mod(math.Abs(r), 1e6) + 1
		}
		if len(xs) == 0 {
			return true
		}
		return CV(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
	xs := []float64{4, 1, 3, 2} // unsorted input; must not be mutated
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); !approx(got, 2.5, 1e-12) {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := Percentile(xs, 75); !approx(got, 3.25, 1e-12) {
		t.Errorf("p75 = %v, want 3.25", got)
	}
	if xs[0] != 4 || xs[3] != 2 {
		t.Error("input slice mutated")
	}
	// Clamping beyond the valid range.
	if Percentile(xs, -5) != 1 || Percentile(xs, 200) != 4 {
		t.Error("p outside [0,100] not clamped")
	}
	// Single element: every percentile is that element.
	if Percentile([]float64{7}, 99) != 7 {
		t.Error("single-element percentile")
	}
	// Percentiles are monotone in p.
	if err := quick.Check(func(raw []float64, p1, p2 float64) bool {
		var clean []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		lo, hi := math.Mod(math.Abs(p1), 100), math.Mod(math.Abs(p2), 100)
		if lo > hi {
			lo, hi = hi, lo
		}
		return Percentile(clean, lo) <= Percentile(clean, hi)
	}, nil); err != nil {
		t.Error(err)
	}
}
