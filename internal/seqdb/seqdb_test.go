package seqdb

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
)

func testSpec() Spec {
	return Spec{
		Name:    "testdb",
		Type:    seq.Protein,
		NumSeqs: 50,
		MeanLen: 120,
		Seed:    1,
	}
}

func TestGenerateBasic(t *testing.T) {
	db, err := Generate(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Seqs) != 50 {
		t.Fatalf("records = %d, want 50", len(db.Seqs))
	}
	for _, s := range db.Seqs {
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
		if s.Len() < 20 {
			t.Fatalf("record %s shorter than the minLen floor: %d", s.ID, s.Len())
		}
	}
	if db.ScaleFactor != 1 {
		t.Errorf("default ScaleFactor = %v, want 1", db.ScaleFactor)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Seqs) != len(b.Seqs) {
		t.Fatal("record counts differ")
	}
	for i := range a.Seqs {
		if !bytes.Equal(a.Seqs[i].Residues, b.Seqs[i].Residues) {
			t.Fatalf("record %d differs between identical specs", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	bad := testSpec()
	bad.NumSeqs = -1
	if _, err := Generate(bad); err == nil {
		t.Error("negative NumSeqs accepted")
	}
	bad = testSpec()
	bad.Type = seq.Ligand
	if _, err := Generate(bad); err == nil {
		t.Error("ligand database accepted")
	}
	bad = testSpec()
	bad.MeanLen = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero MeanLen accepted")
	}
}

func TestHomologPlanting(t *testing.T) {
	g := seq.NewGenerator(rng.New(42))
	query := g.Random("query", seq.Protein, 200)
	spec := testSpec()
	spec.Homologs = []*seq.Sequence{query}
	spec.HomologsPerQuery = 5
	db, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	homs := 0
	frags := 0
	for _, s := range db.Seqs {
		switch {
		case strings.Contains(s.ID, "|hom"):
			homs++
			if s.Len() != query.Len() {
				t.Errorf("homolog %s length %d, want %d", s.ID, s.Len(), query.Len())
			}
			// Closest homolog diverges ~5%; all must share most residues.
			same := 0
			for i := range s.Residues {
				if s.Residues[i] == query.Residues[i] {
					same++
				}
			}
			if float64(same)/float64(s.Len()) < 0.45 {
				t.Errorf("homolog %s shares only %d/%d residues", s.ID, same, s.Len())
			}
		case strings.Contains(s.ID, "|frag"):
			frags++
		}
	}
	if homs != 5 {
		t.Errorf("planted %d homologs, want 5", homs)
	}
	if frags != 1 {
		t.Errorf("planted %d fragments, want 1", frags)
	}
}

func TestHomologTypeMismatchSkipped(t *testing.T) {
	g := seq.NewGenerator(rng.New(1))
	rnaQuery := g.Random("q", seq.RNA, 100)
	spec := testSpec() // protein DB
	spec.Homologs = []*seq.Sequence{rnaQuery}
	spec.HomologsPerQuery = 3
	db, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range db.Seqs {
		if strings.Contains(s.ID, "|hom") {
			t.Fatal("RNA homolog planted in protein database")
		}
	}
}

// entropyBits is the Shannon entropy of s's composition, in bits per
// residue.
func entropyBits(s *seq.Sequence) float64 {
	var counts [32]int
	for _, r := range s.Residues {
		counts[r]++
	}
	var h float64
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(len(s.Residues))
			h -= p * math.Log2(p)
		}
	}
	return h
}

func TestLowComplexityRecords(t *testing.T) {
	spec := testSpec()
	spec.LowComplexFrac = 1.0
	db, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range db.Seqs {
		if h := entropyBits(s); h > 2.0 {
			t.Errorf("low-complexity record %s has entropy %v", s.ID, h)
		}
	}
	// Must include glutamine-rich content for poly-Q collisions.
	foundQ := false
	for _, s := range db.Seqs {
		run := 0
		for _, r := range s.Residues {
			if r == seq.QIndex {
				run++
				if run >= 4 {
					foundQ = true
				}
			} else {
				run = 0
			}
		}
	}
	if !foundQ {
		t.Error("no glutamine runs in low-complexity records")
	}
}

func TestSizeAccounting(t *testing.T) {
	spec := testSpec()
	spec.ScaleFactor = 1000
	db, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 21 header + 6 name + 50 × (6 overhead + 18 id) + 5685 residues. Every
	// modeled disk second and golden is priced from this accounting, so the
	// number may not move.
	if got, want := db.SyntheticBytes(), int64(6912); got != want {
		t.Errorf("SyntheticBytes = %d, want %d", got, want)
	}
	if db.ModeledBytes() != db.SyntheticBytes()*1000 {
		t.Errorf("ModeledBytes = %d, want %d", db.ModeledBytes(), db.SyntheticBytes()*1000)
	}
	if db.TotalResidues() <= 0 {
		t.Error("TotalResidues not positive")
	}
}
