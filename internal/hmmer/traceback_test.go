package hmmer

import (
	"math"
	"testing"
	"testing/quick"

	"afsysbench/internal/metering"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
)

// Matches returns the number of match operations.
func (a *Alignment) Matches() int {
	n := 0
	for _, p := range a.Pairs {
		if p.Op == OpMatch {
			n++
		}
	}
	return n
}

func TestTracebackScoreMatchesPlainKernel(t *testing.T) {
	g := protGen(31)
	for trial := 0; trial < 10; trial++ {
		q := g.Random("q", seq.Protein, 60)
		target := g.Mutate(q, "t", 0.25)
		p, _ := BuildFromQuery(q)
		plain := BandedViterbi(p, target, 0, BandHalfWidth, metering.Nop{})
		traced, ali := BandedViterbiAlign(p, target, 0, BandHalfWidth, metering.Nop{})
		if math.Abs(float64(plain.Score-traced.Score)) > 1e-3 {
			t.Fatalf("trial %d: traceback kernel score %v != plain %v", trial, traced.Score, plain.Score)
		}
		if math.Abs(float64(ali.Score-traced.Score)) > 1e-6 {
			t.Fatalf("alignment score %v != result score %v", ali.Score, traced.Score)
		}
	}
}

func TestTracebackPathValid(t *testing.T) {
	g := protGen(32)
	q := g.Random("q", seq.Protein, 80)
	target := g.Mutate(q, "t", 0.2)
	p, _ := BuildFromQuery(q)
	res, ali := BandedViterbiAlign(p, target, 0, BandHalfWidth, metering.Nop{})
	if err := ali.Validate(p.M, target.Len()); err != nil {
		t.Fatal(err)
	}
	if len(ali.Pairs) == 0 {
		t.Fatal("empty alignment for a homologous pair")
	}
	// The path must end at the reported best cell.
	last := ali.Pairs[len(ali.Pairs)-1]
	if last.Op != OpMatch || last.Col != res.EndCol || last.Pos != res.EndRow {
		t.Errorf("path ends at (%d,%d,%c), result says (%d,%d)", last.Col, last.Pos, last.Op, res.EndCol, res.EndRow)
	}
}

func TestTracebackIdenticalSequencesAllMatches(t *testing.T) {
	g := protGen(33)
	q := g.Random("q", seq.Protein, 50)
	p, _ := BuildFromQuery(q)
	_, ali := BandedViterbiAlign(p, q, 0, BandHalfWidth, metering.Nop{})
	if err := ali.Validate(p.M, q.Len()); err != nil {
		t.Fatal(err)
	}
	if ali.Matches() != len(ali.Pairs) {
		t.Errorf("self-alignment contains gaps: %d matches of %d pairs", ali.Matches(), len(ali.Pairs))
	}
	if ali.Matches() < 45 {
		t.Errorf("self-alignment covers only %d/50 residues", ali.Matches())
	}
	// Every pair must be on the main diagonal.
	for _, pr := range ali.Pairs {
		if pr.Col != pr.Pos {
			t.Fatalf("self-alignment off diagonal: %+v", pr)
		}
	}
}

func TestTracebackRecoversInsertion(t *testing.T) {
	g := protGen(34)
	q := g.Random("q", seq.Protein, 60)
	// Target = query with 3 residues inserted at position 30.
	ins := g.Random("ins", seq.Protein, 3)
	residues := append([]byte(nil), q.Residues[:30]...)
	residues = append(residues, ins.Residues...)
	residues = append(residues, q.Residues[30:]...)
	target := &seq.Sequence{ID: "t", Type: seq.Protein, Residues: residues}

	p, _ := BuildFromQuery(q)
	_, ali := BandedViterbiAlign(p, target, 0, BandHalfWidth, metering.Nop{})
	if err := ali.Validate(p.M, target.Len()); err != nil {
		t.Fatal(err)
	}
	inserts := 0
	for _, pr := range ali.Pairs {
		if pr.Op == OpInsert {
			inserts++
		}
	}
	if inserts != 3 {
		t.Errorf("recovered %d insertions, want 3", inserts)
	}
	if ali.Matches() < 55 {
		t.Errorf("only %d matches around the insertion", ali.Matches())
	}
}

func TestTracebackRecoversDeletion(t *testing.T) {
	g := protGen(35)
	q := g.Random("q", seq.Protein, 60)
	// Target = query with columns 30..32 deleted.
	residues := append([]byte(nil), q.Residues[:30]...)
	residues = append(residues, q.Residues[33:]...)
	target := &seq.Sequence{ID: "t", Type: seq.Protein, Residues: residues}

	p, _ := BuildFromQuery(q)
	_, ali := BandedViterbiAlign(p, target, 0, BandHalfWidth, metering.Nop{})
	if err := ali.Validate(p.M, target.Len()); err != nil {
		t.Fatal(err)
	}
	dels := 0
	for _, pr := range ali.Pairs {
		if pr.Op == OpDelete {
			dels++
		}
	}
	if dels != 3 {
		t.Errorf("recovered %d deletions, want 3", dels)
	}
}

func TestTracebackEmitsKernelEvents(t *testing.T) {
	g := protGen(36)
	q := g.Random("q", seq.Protein, 40)
	target := g.Mutate(q, "t", 0.1)
	p, _ := BuildFromQuery(q)
	var m metering.Accumulator
	BandedViterbiAlign(p, target, 0, BandHalfWidth, &m)
	by := m.Ledger()
	if by[metering.CalcBand9].Instructions == 0 || by[metering.CalcBand10].Instructions == 0 {
		t.Error("traceback kernel must report calc_band events")
	}
}

func TestAlignmentValidateRejectsMalformed(t *testing.T) {
	bad := []Alignment{
		{Pairs: []AlignedPair{{Op: OpMatch, Col: 5, Pos: 5}, {Op: OpMatch, Col: 5, Pos: 6}}}, // col not advancing
		{Pairs: []AlignedPair{{Op: OpInsert, Col: 3, Pos: 1}}},                               // insert with col
		{Pairs: []AlignedPair{{Op: OpDelete, Col: 2, Pos: 2}}},                               // delete with pos
		{Pairs: []AlignedPair{{Op: OpKind('X'), Col: 1, Pos: 1}}},                            // unknown op
		{Pairs: []AlignedPair{{Op: OpMatch, Col: 99, Pos: 0}}},                               // out of bounds
		{Pairs: []AlignedPair{{Op: OpMatch, Col: 1, Pos: 1}, {Op: OpMatch, Col: 2, Pos: 1}}}, // pos not advancing
	}
	for i, a := range bad {
		if err := a.Validate(10, 10); err == nil {
			t.Errorf("malformed alignment %d accepted", i)
		}
	}
}

func TestQuickTracebackAlwaysValid(t *testing.T) {
	f := func(seed uint64, mutRaw uint8) bool {
		g := seq.NewGenerator(rng.New(seed))
		q := g.Random("q", seq.Protein, 40)
		rate := float64(mutRaw%60) / 100
		target := g.Mutate(q, "t", rate)
		p, err := BuildFromQuery(q)
		if err != nil {
			return false
		}
		_, ali := BandedViterbiAlign(p, target, 0, BandHalfWidth, metering.Nop{})
		return ali.Validate(p.M, target.Len()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildGappedAlignmentUsesTracedPath(t *testing.T) {
	g := protGen(37)
	q := g.Random("q", seq.Protein, 50)
	hom := g.Mutate(q, "hom", 0.1)
	p, _ := BuildFromQuery(q)
	_, ali := BandedViterbiAlign(p, hom, 0, BandHalfWidth, metering.Nop{})
	hits := []Hit{{TargetID: "hom", Target: hom, Diagonal: 0, EValue: 1e-9, Alignment: ali}}
	rows := BuildGappedAlignment(q, hits, 1e-3)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	same := 0
	for col, r := range rows[1] {
		if r != GapResidue && r == q.Residues[col] {
			same++
		}
	}
	if same < 35 {
		t.Errorf("gapped stack aligned only %d/50 columns to the query", same)
	}
	// Above-threshold hits are excluded.
	hits[0].EValue = 1
	if rows := BuildGappedAlignment(q, hits, 1e-3); len(rows) != 1 {
		t.Error("non-significant hit stacked")
	}
}

func TestWindowPlan(t *testing.T) {
	// Short target: single window.
	pl := planWindows(100, 400)
	if pl.targets != 1 || pl.winLen != 400 {
		t.Errorf("short target plan %+v", pl)
	}
	// Long target: overlapping windows covering everything.
	pl = planWindows(200, 5000)
	if pl.targets < 2 {
		t.Fatalf("long target got %d windows", pl.targets)
	}
	if pl.winLen != 600 || pl.stride != 400 {
		t.Errorf("plan %+v, want win 600 stride 400", pl)
	}
	last := (pl.targets - 1) * pl.stride
	if last >= 5000 {
		t.Error("last window starts beyond the target")
	}
	if last+pl.winLen < 5000 {
		t.Error("windows do not cover the target tail")
	}
	// Tiny query: window floor applies.
	pl = planWindows(20, 10000)
	if pl.winLen != minWindow {
		t.Errorf("window floor not applied: %d", pl.winLen)
	}
}

func TestWindowedScanFindsHomologInLongTarget(t *testing.T) {
	g := seq.NewGenerator(rng.New(41))
	query := g.Random("rna", seq.RNA, 150)
	// Embed a homolog deep inside a long random target.
	long := g.Random("chr", seq.RNA, 6000)
	hom := g.Mutate(query, "h", 0.08)
	copy(long.Residues[4200:4350], hom.Residues)

	res, err := SearchNucleotide(query, func() RecordSource {
		return &SliceSource{Seqs: []*seq.Sequence{long}}
	}, long.Len(), SearchOptions{}, metering.Nop{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows < 2 {
		t.Fatalf("long target scanned in %d windows, want several", res.Windows)
	}
	if res.PeakWindowStateBytes <= 0 {
		t.Error("window state accounting missing")
	}
	found := false
	for _, h := range res.Hits {
		if h.EValue < 0.01 {
			found = true
			if h.Alignment == nil {
				t.Fatal("windowed hit missing alignment")
			}
			// Alignment positions must be in whole-target coordinates.
			for _, pr := range h.Alignment.Pairs {
				if pr.Pos >= 0 && (pr.Pos < 4000 || pr.Pos > 4400) {
					t.Fatalf("alignment position %d outside embedded region", pr.Pos)
				}
			}
		}
	}
	if !found {
		t.Error("embedded homolog not found by windowed scan")
	}
}

func TestWindowedStateGrowsWithQueryLength(t *testing.T) {
	g := seq.NewGenerator(rng.New(43))
	long := g.Random("chr", seq.RNA, 8000)
	state := func(qLen int) int64 {
		q := g.Random("q", seq.RNA, qLen)
		// Embed a couple of homologous stretches so windows seed.
		hom := g.Mutate(q, "h", 0.1)
		copy(long.Residues[1000:1000+qLen], hom.Residues)
		copy(long.Residues[5000:5000+qLen], hom.Residues)
		res, err := SearchNucleotide(q, func() RecordSource {
			return &SliceSource{Seqs: []*seq.Sequence{long}}
		}, long.Len(), SearchOptions{}, metering.Nop{})
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakWindowStateBytes
	}
	small, big := state(100), state(400)
	if big <= small {
		t.Errorf("window state must grow with query length: %d -> %d", small, big)
	}
}
