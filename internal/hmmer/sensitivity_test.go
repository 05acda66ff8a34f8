package hmmer

import "testing"

func TestSensitivityCurveShape(t *testing.T) {
	rates := []float64{0.05, 0.2, 0.4, 0.7}
	rep, err := EvaluateSensitivity(rates, SensitivityOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 4 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	// Close homologs must be found nearly always; far ones rarely.
	if r := rep.Points[0].Recovery(); r < 0.9 {
		t.Errorf("recovery at 5%% divergence = %.2f, want ~1", r)
	}
	if r := rep.Points[3].Recovery(); r > rep.Points[0].Recovery() {
		t.Errorf("recovery at 70%% divergence (%.2f) exceeds close homologs", r)
	}
	// The curve must decline overall (allow one non-monotone step from
	// small-sample noise).
	drops := 0
	for i := 1; i < len(rep.Points); i++ {
		if rep.Points[i].Recovery() <= rep.Points[i-1].Recovery() {
			drops++
		}
	}
	if drops < 2 {
		t.Errorf("recovery curve not declining: %+v", rep.Points)
	}
}

func TestSensitivitySpecificity(t *testing.T) {
	rep, err := EvaluateSensitivity([]float64{0.1}, SensitivityOptions{Seed: 2, Decoys: 300})
	if err != nil {
		t.Fatal(err)
	}
	if fpr := rep.FalsePositiveRate(); fpr > 0.02 {
		t.Errorf("false positive rate = %.3f, want ~0 at E<=1e-3", fpr)
	}
}

func TestSensitivityDeterministic(t *testing.T) {
	a, err := EvaluateSensitivity([]float64{0.1, 0.3}, SensitivityOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateSensitivity([]float64{0.1, 0.3}, SensitivityOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i].Recovered != b.Points[i].Recovered {
			t.Fatal("sensitivity evaluation not deterministic")
		}
	}
	if a.FalsePositives != b.FalsePositives {
		t.Fatal("false positives not deterministic")
	}
}

func TestSensitivityErrors(t *testing.T) {
	if _, err := EvaluateSensitivity(nil, SensitivityOptions{}); err == nil {
		t.Error("empty rates accepted")
	}
	if _, err := EvaluateSensitivity([]float64{1.5}, SensitivityOptions{}); err == nil {
		t.Error("out-of-range rate accepted")
	}
}

func TestSensitivityHelpers(t *testing.T) {
	p := SensitivityPoint{Planted: 0}
	if p.Recovery() != 0 {
		t.Error("zero-planted recovery should be 0")
	}
	r := &SensitivityReport{}
	if r.FalsePositiveRate() != 0 {
		t.Error("zero-decoy FPR should be 0")
	}
}
