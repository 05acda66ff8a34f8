package seqdb

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

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
	if db.NumSeqs() != 50 {
		t.Fatalf("NumSeqs = %d, want 50", db.NumSeqs())
	}
	for _, s := range db.Seqs {
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
		if s.Len() < 20 {
			t.Fatalf("record %s shorter than MinLen floor: %d", s.ID, s.Len())
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
	if a.NumSeqs() != b.NumSeqs() {
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

func TestLowComplexityRecords(t *testing.T) {
	spec := testSpec()
	spec.LowComplexFrac = 1.0
	db, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range db.Seqs {
		c := s.Complexity()
		if c.Entropy > 2.0 {
			t.Errorf("low-complexity record %s has entropy %v", s.ID, c.Entropy)
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
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(buf.Len()), db.SyntheticBytes(); got != want {
		t.Errorf("encoded size %d != SyntheticBytes %d", got, want)
	}
	if db.ModeledBytes() != db.SyntheticBytes()*1000 {
		t.Errorf("ModeledBytes = %d, want %d", db.ModeledBytes(), db.SyntheticBytes()*1000)
	}
	if db.TotalResidues() <= 0 {
		t.Error("TotalResidues not positive")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	spec := testSpec()
	spec.ScaleFactor = 123.5
	db, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != db.Name || got.Type != db.Type || got.ScaleFactor != db.ScaleFactor {
		t.Errorf("metadata mismatch: %+v vs %+v", got, db)
	}
	if got.NumSeqs() != db.NumSeqs() {
		t.Fatalf("record count %d, want %d", got.NumSeqs(), db.NumSeqs())
	}
	for i := range db.Seqs {
		if got.Seqs[i].ID != db.Seqs[i].ID || !bytes.Equal(got.Seqs[i].Residues, db.Seqs[i].Residues) {
			t.Fatalf("record %d mismatched", i)
		}
	}
}

func TestScannerStreams(t *testing.T) {
	db, err := Generate(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sc, meta, err := OpenScanner(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Name != db.Name {
		t.Errorf("scanner metadata name %q, want %q", meta.Name, db.Name)
	}
	count := 0
	for sc.Scan() {
		if sc.Seq() == nil {
			t.Fatal("nil record from scanner")
		}
		count++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if count != db.NumSeqs() {
		t.Errorf("scanned %d records, want %d", count, db.NumSeqs())
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE000000000000000000000"))); err == nil {
		t.Error("bad magic accepted")
	}
	db, _ := Generate(testSpec())
	var buf bytes.Buffer
	_ = db.Write(&buf)
	// Truncate mid-record.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated database accepted")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		spec := Spec{Name: "q", Type: seq.RNA, NumSeqs: int(n) % 20, MeanLen: 50, Seed: seed}
		db, err := Generate(spec)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := db.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || got.NumSeqs() != db.NumSeqs() {
			return false
		}
		for i := range db.Seqs {
			if !bytes.Equal(got.Seqs[i].Residues, db.Seqs[i].Residues) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRobustToGarbage(t *testing.T) {
	// Random byte streams must produce errors, never panics or corrupt
	// databases.
	r := rng.New(88)
	valid, _ := Generate(testSpec())
	var img bytes.Buffer
	_ = valid.Write(&img)
	base := img.Bytes()
	for trial := 0; trial < 200; trial++ {
		corrupted := append([]byte(nil), base...)
		// Flip a handful of random bytes.
		for k := 0; k < 5; k++ {
			pos := r.Intn(len(corrupted))
			corrupted[pos] ^= byte(1 + r.Intn(255))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Read panicked on corrupted image: %v", p)
				}
			}()
			db, err := Read(bytes.NewReader(corrupted))
			if err == nil {
				// A lucky parse must still be structurally sound.
				for _, s := range db.Seqs {
					_ = s.Len()
				}
			}
		}()
	}
}

func TestReadProfileGarbage(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(400)
		junk := make([]byte, n)
		for i := range junk {
			junk[i] = byte(r.Intn(256))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("garbage parse panicked: %v", p)
				}
			}()
			_, _ = Read(bytes.NewReader(junk))
		}()
	}
}
