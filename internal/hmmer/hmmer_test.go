package hmmer

import (
	"math"
	"testing"

	"afsysbench/internal/metering"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
)

func protGen(seed uint64) *seq.Generator { return seq.NewGenerator(rng.New(seed)) }

func protGenSrc(seed uint64) *rng.Source { return rng.New(seed) }

func TestMatrices(t *testing.T) {
	pm := ProteinMatrix()
	if pm.N != 20 {
		t.Fatalf("protein matrix N = %d", pm.N)
	}
	for i := 0; i < 20; i++ {
		if pm.At(byte(i), byte(i)) <= 0 {
			t.Errorf("identity score for residue %d not positive", i)
		}
		for j := 0; j < 20; j++ {
			if pm.At(byte(i), byte(j)) != pm.At(byte(j), byte(i)) {
				t.Errorf("matrix asymmetric at (%d,%d)", i, j)
			}
		}
	}
	nm := NucleotideMatrix()
	if nm.At(0, 0) <= 0 || nm.At(0, 1) >= 0 {
		t.Error("nucleotide match/mismatch signs wrong")
	}
	if MatrixFor(seq.Ligand) != nil {
		t.Error("ligand matrix should be nil")
	}
}

func TestBuildFromQuery(t *testing.T) {
	q := protGen(1).Random("q", seq.Protein, 100)
	p, err := BuildFromQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.M != 100 || p.K != 20 {
		t.Fatalf("profile dims %dx%d", p.M, p.K)
	}
	// Column i must score residue q_i highest or tied-highest.
	for i, r := range q.Residues {
		col := p.Match[i*p.K : (i+1)*p.K]
		for _, s := range col {
			if s > col[r] {
				t.Fatalf("column %d: own residue not max-scoring", i)
			}
		}
	}
	if p.Lambda <= 0 || p.Mu <= 0 {
		t.Errorf("calibration invalid: lambda=%v mu=%v", p.Lambda, p.Mu)
	}
}

func TestBuildFromQueryErrors(t *testing.T) {
	if _, err := BuildFromQuery(&seq.Sequence{Type: seq.Ligand}); err == nil {
		t.Error("ligand query accepted")
	}
	if _, err := BuildFromQuery(&seq.Sequence{Type: seq.Protein}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestBuildFromAlignment(t *testing.T) {
	g := protGen(2)
	q := g.Random("q", seq.Protein, 50)
	rows := [][]byte{q.Residues, q.Residues, q.Residues}
	p, err := BuildFromAlignment("a", seq.Protein, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Unanimous columns must strongly favor the consensus residue.
	for i, r := range q.Residues {
		col := p.Match[i*p.K : (i+1)*p.K]
		if col[r] <= 0 {
			t.Errorf("consensus residue score %v at col %d, want > 0", col[r], i)
		}
	}
	// Gap-only rows are tolerated.
	gapRow := make([]byte, 50)
	for i := range gapRow {
		gapRow[i] = GapResidue
	}
	if _, err := BuildFromAlignment("g", seq.Protein, [][]byte{q.Residues, gapRow}); err != nil {
		t.Errorf("gap row rejected: %v", err)
	}
}

func TestBuildFromAlignmentErrors(t *testing.T) {
	if _, err := BuildFromAlignment("x", seq.Protein, nil); err == nil {
		t.Error("empty alignment accepted")
	}
	if _, err := BuildFromAlignment("x", seq.Protein, [][]byte{{1, 2}, {1}}); err == nil {
		t.Error("ragged alignment accepted")
	}
	if _, err := BuildFromAlignment("x", seq.Ligand, [][]byte{{1}}); err == nil {
		t.Error("ligand alignment accepted")
	}
}

func TestEValueMonotonicity(t *testing.T) {
	q := protGen(3).Random("q", seq.Protein, 80)
	p, _ := BuildFromQuery(q)
	if e1, e2 := p.EValue(50, 1e6), p.EValue(60, 1e6); e2 >= e1 {
		t.Errorf("E-value not decreasing in score: %v -> %v", e1, e2)
	}
	if e1, e2 := p.EValue(50, 1e5), p.EValue(50, 1e6); e2 <= e1 {
		t.Errorf("E-value not increasing in db size: %v -> %v", e1, e2)
	}
	if p.BitScore(100) <= p.BitScore(50) {
		t.Error("bit score not monotonic")
	}
}

func TestBandedMatchesFullWhenBandCoversAll(t *testing.T) {
	g := protGen(6)
	q := g.Random("q", seq.Protein, 30)
	target := g.Mutate(q, "t", 0.1)
	p, _ := BuildFromQuery(q)
	full := FullViterbi(p, target, metering.Nop{})
	banded := BandedViterbi(p, target, 0, p.M+target.Len(), metering.Nop{})
	if math.Abs(float64(full.Score-banded.Score)) > 1e-4 {
		t.Errorf("full = %v, banded(all) = %v", full.Score, banded.Score)
	}
}

func TestBandedNeverExceedsFull(t *testing.T) {
	g := protGen(7)
	for trial := 0; trial < 10; trial++ {
		q := g.Random("q", seq.Protein, 40)
		target := g.Mutate(q, "t", 0.3)
		p, _ := BuildFromQuery(q)
		full := FullViterbi(p, target, metering.Nop{})
		banded := BandedViterbi(p, target, 0, BandHalfWidth, metering.Nop{})
		if banded.Score > full.Score+1e-4 {
			t.Errorf("trial %d: banded %v > full %v", trial, banded.Score, full.Score)
		}
	}
}

func TestBandedHomologOutscoresRandom(t *testing.T) {
	g := protGen(8)
	q := g.Random("q", seq.Protein, 150)
	p, _ := BuildFromQuery(q)
	hom := g.Mutate(q, "hom", 0.2)
	rnd := g.Random("rnd", seq.Protein, 150)
	sHom := BandedViterbi(p, hom, 0, BandHalfWidth, metering.Nop{}).Score
	sRnd := BandedViterbi(p, rnd, 0, BandHalfWidth, metering.Nop{}).Score
	if sHom <= sRnd*2 {
		t.Errorf("homolog score %v not well above random %v", sHom, sRnd)
	}
}

// TestPublicKernelsAcceptNilMeter: a nil meter means "do not meter" on
// every public kernel.
func TestPublicKernelsAcceptNilMeter(t *testing.T) {
	g := protGen(12)
	q := g.Random("q", seq.Protein, 30)
	target := g.Mutate(q, "t", 0.1)
	p, _ := BuildFromQuery(q)
	banded := BandedViterbi(p, target, 0, BandHalfWidth, nil)
	full := FullViterbi(p, target, nil)
	traced, ali := BandedViterbiAlign(p, target, 0, BandHalfWidth, nil)
	fwd := Forward(p, target, 0, BandHalfWidth, nil)
	if banded.Score <= 0 || full.Score < banded.Score || traced != banded || ali.Score != banded.Score || fwd < float64(banded.Score)-1e-3 {
		t.Errorf("unmetered kernels disagree: banded %+v, full %+v, traced %+v, forward %v", banded, full, traced, fwd)
	}
}

func TestBandKernelEventSplit(t *testing.T) {
	g := protGen(9)
	q := g.Random("q", seq.Protein, 64)
	target := g.Mutate(q, "t", 0.1)
	p, _ := BuildFromQuery(q)
	var m metering.Accumulator
	BandedViterbi(p, target, 0, BandHalfWidth, &m)
	by := m.ByFunc()
	b9, ok9 := by["calc_band_9"]
	b10, ok10 := by["calc_band_10"]
	if !ok9 || !ok10 {
		t.Fatal("both band kernels must report events")
	}
	// Even rows (kernel 9) process >= as many rows as odd rows.
	if b9.Instructions < b10.Instructions {
		t.Errorf("calc_band_9 %d < calc_band_10 %d instructions", b9.Instructions, b10.Instructions)
	}
	ratio := float64(b9.Instructions) / float64(b10.Instructions)
	if ratio > 1.3 {
		t.Errorf("kernel split ratio %v too skewed", ratio)
	}
}

func TestForwardAtLeastViterbi(t *testing.T) {
	g := protGen(10)
	q := g.Random("q", seq.Protein, 60)
	target := g.Mutate(q, "t", 0.15)
	p, _ := BuildFromQuery(q)
	vit := BandedViterbi(p, target, 0, BandHalfWidth, metering.Nop{})
	fwd := Forward(p, target, 0, BandHalfWidth, metering.Nop{})
	if fwd < float64(vit.Score)-1e-3 {
		t.Errorf("forward %v < viterbi %v", fwd, vit.Score)
	}
}

func TestForwardEmptyBand(t *testing.T) {
	g := protGen(11)
	q := g.Random("q", seq.Protein, 20)
	target := g.Random("t", seq.Protein, 20)
	p, _ := BuildFromQuery(q)
	// Diagonal far outside any valid column: score must be 0, not -Inf/NaN.
	got := Forward(p, target, 10_000, 3, metering.Nop{})
	if got != 0 {
		t.Errorf("out-of-range band forward = %v, want 0", got)
	}
}

func TestLogSumExp(t *testing.T) {
	if got := logSumExp2(math.Inf(-1), math.Inf(-1)); !math.IsInf(got, -1) {
		t.Errorf("lse(-inf,-inf) = %v", got)
	}
	if got := logSumExp2(0, 0); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("lse(0,0) = %v, want ln2", got)
	}
	if got := logSumExp2(100, math.Inf(-1)); got != 100 {
		t.Errorf("lse(100,-inf) = %v", got)
	}
}
