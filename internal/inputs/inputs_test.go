package inputs

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
)

func TestTableIIProperties(t *testing.T) {
	cases := []struct {
		name     string
		residues int
		chains   int
		hasRNA   bool
	}{
		{"2PV7", 484, 2, false},
		{"7RCE", 306, 3, false},
		{"1YY9", 881, 3, false},
		{"promo", 857, 5, false},
		{"6QNR", 1395, 10, true},
	}
	samples := Samples()
	if len(samples) != len(cases) {
		t.Fatalf("Samples() returned %d entries", len(samples))
	}
	for i, c := range cases {
		in := samples[i]
		if in.Name != c.name {
			t.Errorf("sample %d name %q, want %q", i, in.Name, c.name)
		}
		if err := in.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.name, err)
		}
		if got := in.TotalResidues(); got != c.residues {
			t.Errorf("%s residues = %d, want %d (Table II)", c.name, got, c.residues)
		}
		if got := in.ChainCount(); got != c.chains {
			t.Errorf("%s chains = %d, want %d", c.name, got, c.chains)
		}
		if in.HasRNA() != c.hasRNA {
			t.Errorf("%s HasRNA = %v", c.name, in.HasRNA())
		}
	}
}

func TestPromoHasPolyQAnd1YY9DoesNot(t *testing.T) {
	promo, _ := ByName("promo")
	yy9, _ := ByName("1YY9")
	if promo.MaxLowComplexity() <= yy9.MaxLowComplexity() {
		t.Errorf("promo low-complexity %.3f not above 1YY9 %.3f",
			promo.MaxLowComplexity(), yy9.MaxLowComplexity())
	}
	polyQ := bytes.Repeat([]byte{seq.QIndex}, 60)
	found := false
	for _, c := range promo.Chains {
		found = found || c.Sequence.Type == seq.Protein && bytes.Contains(c.Sequence.Residues, polyQ)
	}
	if !found {
		t.Error("promo has no run of 60 glutamines, want the planted poly-Q")
	}
}

func TestMSAChainsExcludeDNA(t *testing.T) {
	promo, _ := ByName("promo")
	for _, c := range promo.MSAChains() {
		if c.Sequence.Type == seq.DNA {
			t.Error("DNA chain in MSA set (paper Obs. 2: DNA excluded)")
		}
	}
	if len(promo.MSAChains()) != 3 {
		t.Errorf("promo MSA chains = %d, want 3 proteins", len(promo.MSAChains()))
	}
}

func TestSamplesDeterministic(t *testing.T) {
	a := SamplePromo()
	b := SamplePromo()
	if a.Chains[0].Sequence.Letters() != b.Chains[0].Sequence.Letters() {
		t.Error("sample generation not deterministic")
	}
}

func TestByName(t *testing.T) {
	// Every Table II name resolves to exactly its Samples() entry, built
	// on its own.
	for _, want := range Samples() {
		got, err := ByName(want.Name)
		if err != nil {
			t.Errorf("ByName(%s): %v", want.Name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%s) differs from its Samples() entry", want.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown sample accepted")
	}
}

func TestMaxHelpers(t *testing.T) {
	q, _ := ByName("6QNR")
	if q.MaxRNALength() != 600 {
		t.Errorf("6QNR RNA length = %d", q.MaxRNALength())
	}
	if q.MaxProteinLength() != 120 {
		t.Errorf("6QNR max protein = %d", q.MaxProteinLength())
	}
	p, _ := ByName("2PV7")
	if p.MaxRNALength() != 0 {
		t.Error("protein-only sample reports RNA length")
	}
}

func TestRNASweepLengths(t *testing.T) {
	sweep := RNASweep()
	want := []int{621, 935, 1135, 1335}
	if len(sweep) != len(want) {
		t.Fatalf("sweep size %d", len(sweep))
	}
	for i, in := range sweep {
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := in.MaxRNALength(); got != want[i] {
			t.Errorf("sweep[%d] RNA length = %d, want %d", i, got, want[i])
		}
		if !in.HasRNA() {
			t.Error("sweep input missing RNA")
		}
	}
}

func TestReadAF3JSON(t *testing.T) {
	const doc = `{"name":"mini","modelSeeds":[7,8],"sequences":[
		{"protein":{"id":["A","B"],"sequence":"ACDEFGHIKLMNPQRSTVWY"}},
		{"dna":{"id":["C"],"sequence":"ACGTACGT"}},
		{"rna":{"id":["D"],"sequence":"ACGUACGUAC"}}]}`
	in, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if in.Name != "mini" || !reflect.DeepEqual(in.Seeds, []int{7, 8}) {
		t.Errorf("name/seeds = %q %v", in.Name, in.Seeds)
	}
	if in.ChainCount() != 4 || in.TotalResidues() != 2*20+8+10 || in.MaxRNALength() != 10 {
		t.Errorf("chains=%d residues=%d maxRNA=%d", in.ChainCount(), in.TotalResidues(), in.MaxRNALength())
	}
	wantTypes := []seq.MoleculeType{seq.Protein, seq.DNA, seq.RNA}
	wantLetters := []string{"ACDEFGHIKLMNPQRSTVWY", "ACGTACGT", "ACGUACGUAC"}
	for i, c := range in.Chains {
		if c.Sequence.Type != wantTypes[i] || c.Sequence.Letters() != wantLetters[i] {
			t.Errorf("chain %d = %v %q", i, c.Sequence.Type, c.Sequence.Letters())
		}
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	cases := []string{
		`{`,
		`{"name":"x","sequences":[{}]}`,
		`{"name":"","sequences":[{"protein":{"id":["A"],"sequence":"ACD"}}]}`,
		`{"name":"x","sequences":[{"protein":{"id":[],"sequence":"ACD"}}]}`,
		`{"name":"x","sequences":[{"protein":{"id":["A"],"sequence":""}}]}`,
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

func TestValidateDuplicateIDs(t *testing.T) {
	in := Sample2PV7()
	in.Chains = append(in.Chains, Chain{IDs: []string{"A"}, Sequence: in.Chains[0].Sequence})
	if err := in.Validate(); err == nil {
		t.Error("duplicate chain id accepted")
	}
}

// logWindowFraction is seq.LowComplexityFraction as it was written before
// the per-call p·log2 p table: the logarithm taken in place, for every
// non-zero count at every window position.
func logWindowFraction(s *seq.Sequence, window int, threshold float64) float64 {
	n := len(s.Residues)
	if n == 0 || window <= 0 {
		return 0
	}
	window = min(window, n)
	covered := make([]bool, n)
	total := 0
	for start := 0; start+window <= n; start++ {
		counts := make([]int, 32)
		for _, r := range s.Residues[start : start+window] {
			counts[r]++
		}
		var h float64
		for _, c := range counts {
			if c > 0 {
				p := float64(c) / float64(window)
				h -= float64(p * math.Log2(p)) // the conversion keeps the product unfused
			}
		}
		if h < threshold {
			for i := start; i < start+window; i++ {
				if !covered[i] {
					covered[i] = true
					total++
				}
			}
		}
	}
	return float64(total) / float64(n)
}

// TestLowComplexityFractionMatchesLogFormula: the tabulated window entropy,
// skipped for windows with too many distinct residues to be low-complexity,
// is the logarithm formula bit for bit — on every Table II chain (promo's
// poly-Q among them), the ten PPI-pool proteins, random sequence and
// repeats, at the MSA filter's window and others — so every model input
// derived from it (the footprint's candidate-state term, the report column)
// is unchanged.
func TestLowComplexityFractionMatchesLogFormula(t *testing.T) {
	var seqs []*seq.Sequence
	for _, in := range Samples() {
		for _, c := range in.MSAChains() {
			seqs = append(seqs, c.Sequence)
		}
	}
	for i := 0; i < PPIPoolSize; i++ {
		in, err := PPIPair(i, (i+1)%PPIPoolSize)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, in.MSAChains()[0].Sequence)
	}
	g := seq.NewGenerator(rng.New(211))
	for _, n := range []int{1, 11, 12, 13, 300} {
		seqs = append(seqs, g.Random("r", seq.Protein, n), g.Random("n", seq.RNA, n))
	}
	seqs = append(seqs, g.WithRepeat("pq", seq.Protein, 200, 60, seq.QIndex))
	flagged := 0
	for _, s := range seqs {
		for _, window := range []int{1, 5, seq.LowComplexityWindow, 20, 64} {
			for _, bits := range []float64{1.0, seq.LowComplexityBits, 3.5} {
				got, want := s.LowComplexityFraction(window, bits), logWindowFraction(s, window, bits)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s (%d residues) window %d threshold %g: %v, the log formula gives %v", s.ID, s.Len(), window, bits, got, want)
				}
				if got > 0 && got < 1 {
					flagged++
				}
			}
		}
	}
	if flagged == 0 {
		t.Error("no sequence is partly low-complexity; the comparison is vacuous")
	}

	// Windows that are all repeats, sequences shorter than the window, and
	// every window 1–16 at thresholds on and one ulp either side of each
	// point where the distinct-residue skip changes: the entropy floor of d
	// distinct residues, and that floor less the skip's 1e-6 margin.
	repeats := []*seq.Sequence{
		g.WithRepeat("polyq", seq.Protein, 90, 40, seq.QIndex),
		g.Random("short", seq.Protein, 7),
	}
	for _, letters := range []string{
		strings.Repeat("Q", 40),
		strings.Repeat("QA", 25),
		strings.Repeat("GSP", 17),
		"MKTAYIAKQR" + strings.Repeat("QQQQQQQQAQ", 4) + "GSGSGSGSGSGSLVDNEWTHFRC",
	} {
		s, err := seq.FromLetters("rep", seq.Protein, letters)
		if err != nil {
			t.Fatal(err)
		}
		repeats = append(repeats, s)
	}
	term := func(c, w int) float64 {
		p := float64(c) / float64(w)
		return p * math.Log2(p)
	}
	for window := 1; window <= 16; window++ {
		thresholds := []float64{1.0, seq.LowComplexityBits, 3.5}
		for d := 1; d <= window; d++ {
			floor := -(term(window-d+1, window) + float64(d-1)*term(1, window))
			for _, b := range []float64{floor, floor - 1e-6} {
				thresholds = append(thresholds, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
			}
		}
		for _, s := range repeats {
			for _, bits := range thresholds {
				got, want := s.LowComplexityFraction(window, bits), logWindowFraction(s, window, bits)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s (%d residues) window %d threshold %v: %v, the log formula gives %v", s.ID, s.Len(), window, bits, got, want)
				}
			}
		}
	}

	// The term table is the one allocation.
	polyQ := repeats[0]
	if allocs := testing.AllocsPerRun(20, func() {
		polyQ.LowComplexityFraction(seq.LowComplexityWindow, seq.LowComplexityBits)
	}); allocs > 1 {
		t.Errorf("LowComplexityFraction allocates %v times a call, want at most 1 (the term table)", allocs)
	}
}
