package seq

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"afsysbench/internal/rng"
)

func TestSearchesMSA(t *testing.T) {
	if !Protein.SearchesMSA() || !RNA.SearchesMSA() {
		t.Error("protein and RNA must go through MSA")
	}
	if DNA.SearchesMSA() || Ligand.SearchesMSA() {
		t.Error("DNA and ligand chains are excluded from MSA (paper Obs. 2)")
	}
}

func TestAlphabets(t *testing.T) {
	if len(ProteinAlphabet) != 20 {
		t.Errorf("protein alphabet size = %d, want 20", len(ProteinAlphabet))
	}
	if DNAAlphabet != "ACGT" || RNAAlphabet != "ACGU" {
		t.Error("nucleotide alphabets wrong")
	}
	if Ligand.Alphabet() != "" {
		t.Error("ligand must have empty alphabet")
	}
}

func TestLettersRoundTrip(t *testing.T) {
	s, err := FromLetters("x", Protein, "ACDEFGHIKLMNPQRSTVWY")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Letters(); got != ProteinAlphabet {
		t.Errorf("Letters = %q, want full alphabet", got)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestFromLettersUnknownMapsToZero(t *testing.T) {
	s, err := FromLetters("x", DNA, "AXG")
	if err != nil {
		t.Fatal(err)
	}
	if s.Residues[1] != 0 {
		t.Errorf("unknown letter mapped to %d, want 0", s.Residues[1])
	}
}

func TestFromLettersLigandErrors(t *testing.T) {
	if _, err := FromLetters("x", Ligand, "A"); err == nil {
		t.Error("FromLetters on ligand should error")
	}
}

func TestValidateCatchesBadResidue(t *testing.T) {
	s := &Sequence{ID: "bad", Type: DNA, Residues: []byte{0, 9}}
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted residue code beyond alphabet")
	}
}

func TestShannonEntropyExtremes(t *testing.T) {
	mono := &Sequence{Type: Protein, Residues: bytes.Repeat([]byte{QIndex}, 100)}
	if h := mono.ShannonEntropy(); h != 0 {
		t.Errorf("mono-residue entropy = %v, want 0", h)
	}
	// Uniform over 20 letters.
	var res []byte
	for i := 0; i < 20; i++ {
		res = append(res, bytes.Repeat([]byte{byte(i)}, 5)...)
	}
	uniform := &Sequence{Type: Protein, Residues: res}
	if h := uniform.ShannonEntropy(); math.Abs(h-math.Log2(20)) > 1e-9 {
		t.Errorf("uniform entropy = %v, want log2(20)=%v", h, math.Log2(20))
	}
	empty := &Sequence{Type: Protein}
	if empty.ShannonEntropy() != 0 {
		t.Error("empty sequence entropy should be 0")
	}
}

func TestLongestRun(t *testing.T) {
	cases := []struct {
		letters string
		want    int
	}{
		{"", 0},
		{"A", 1},
		{"ACGT", 1},
		{"AACGG", 2},
		{"AQQQQC", 4},
		{"QQQQQQ", 6},
	}
	for _, c := range cases {
		s, _ := FromLetters("x", Protein, c.letters)
		if got := s.LongestRun(); got != c.want {
			t.Errorf("LongestRun(%q) = %d, want %d", c.letters, got, c.want)
		}
	}
}

func TestLowComplexityDetectsPolyQ(t *testing.T) {
	g := NewGenerator(rng.New(1))
	normal := g.Random("n", Protein, 400)
	polyQ := g.WithRepeat("p", Protein, 400, 120, QIndex)
	fn := normal.LowComplexityFraction(12, 2.2)
	fp := polyQ.LowComplexityFraction(12, 2.2)
	if fp <= fn {
		t.Errorf("poly-Q low-complexity fraction %v not above random %v", fp, fn)
	}
	if fp < 0.2 {
		t.Errorf("poly-Q with 30%% repeat flagged only %v", fp)
	}
	if fn > 0.05 {
		t.Errorf("random sequence flagged %v low complexity, want ~0", fn)
	}
}

func TestComplexitySummary(t *testing.T) {
	g := NewGenerator(rng.New(2))
	s := g.WithRepeat("p", Protein, 300, 60, QIndex)
	c := s.Complexity()
	if c.LongestRun < 60 {
		t.Errorf("LongestRun = %d, want >= 60", c.LongestRun)
	}
	if c.Entropy <= 0 || c.Entropy > math.Log2(20) {
		t.Errorf("entropy %v out of range", c.Entropy)
	}
	if c.LowComplexFrac <= 0 {
		t.Error("expected nonzero low-complexity fraction")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(rng.New(5)).Random("a", Protein, 200)
	b := NewGenerator(rng.New(5)).Random("a", Protein, 200)
	if !bytes.Equal(a.Residues, b.Residues) {
		t.Error("same seed produced different sequences")
	}
}

func TestMutateRate(t *testing.T) {
	g := NewGenerator(rng.New(7))
	src := g.Random("s", Protein, 2000)
	mut := g.Mutate(src, "m", 0.3)
	if len(mut.Residues) != len(src.Residues) {
		t.Fatal("mutation changed length")
	}
	diff := 0
	for i := range src.Residues {
		if src.Residues[i] != mut.Residues[i] {
			diff++
		}
	}
	// Expected differing fraction is rate*(1-1/|A|) ≈ 0.285.
	frac := float64(diff) / float64(len(src.Residues))
	if frac < 0.2 || frac > 0.37 {
		t.Errorf("mutated fraction = %v, want ~0.285", frac)
	}
	// Mutation must not alias the source storage.
	mut.Residues[0] = (mut.Residues[0] + 1) % 20
	if &src.Residues[0] == &mut.Residues[0] {
		t.Error("Mutate aliased source residues")
	}
}

func TestFragmentBounds(t *testing.T) {
	g := NewGenerator(rng.New(9))
	src := g.Random("s", RNA, 100)
	for _, l := range []int{1, 10, 99, 100, 150} {
		f := g.Fragment(src, "f", l)
		want := l
		if want > 100 {
			want = 100
		}
		if f.Len() != want {
			t.Errorf("Fragment len %d, want %d", f.Len(), want)
		}
		if f.Type != RNA {
			t.Error("fragment lost molecule type")
		}
	}
}

func TestQuickEntropyBounds(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		g := NewGenerator(rng.New(seed))
		s := g.Random("q", Protein, int(n)%1000+1)
		h := s.ShannonEntropy()
		return h >= 0 && h <= math.Log2(20)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
