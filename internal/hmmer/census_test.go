package hmmer

import (
	"math/rand"
	"reflect"
	"testing"

	"afsysbench/internal/metering"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
	"afsysbench/internal/seqdb"
)

// The "who reads this?" census, pinned from the scan's side: an alignment is
// traced only where the traceback ceiling says someone reads it, the seed
// tables of an unchanged query stand, and which band of a target survives
// the dedup does not depend on what else the hit slice holds.

// sameButAlignment is sameHits over every field except Alignment.
func sameButAlignment(a, b []Hit) bool {
	strip := func(hits []Hit) []Hit {
		out := append([]Hit(nil), hits...)
		for i := range out {
			out[i].Alignment = nil
		}
		return out
	}
	return sameHits(strip(a), strip(b))
}

// TestTraceCeiling: a scan under a ceiling reports the hits, counters and
// metered events of the scan that traces everything; its alignments are the
// all-traced scan's where EValue is at or below the ceiling and nil exactly
// where it is above.
func TestTraceCeiling(t *testing.T) {
	for _, mt := range []seq.MoleculeType{seq.Protein, seq.RNA} {
		query, db := repeatRichScan(t, mt)
		p := BuildMust(t, query)
		scan := func(ceiling float64) (*Result, []metering.Event) {
			var acc metering.Accumulator
			res, err := ScanRecords(p, query, &SliceSource{Seqs: db.Seqs}, db.TotalResidues(), SearchOptions{TraceE: ceiling}, &acc)
			if err != nil {
				t.Fatal(err)
			}
			return res, acc.Events
		}
		all, allEvents := scan(0)
		for _, ceiling := range []float64{InclusionE, 1e-30, TraceNone} {
			got, events := scan(ceiling)
			if !sameButAlignment(got.Hits, all.Hits) || got.Candidates != all.Candidates || got.CellsDP != all.CellsDP || got.CellsPruned != all.CellsPruned {
				t.Fatalf("%v ceiling %g: hits or counters differ from the all-traced scan", mt, ceiling)
			}
			if !reflect.DeepEqual(events, allEvents) {
				t.Errorf("%v ceiling %g: the event stream depends on the ceiling", mt, ceiling)
			}
			traced, skipped := 0, 0
			for i, h := range got.Hits {
				if h.EValue > ceiling {
					skipped++
					if h.Alignment != nil {
						t.Errorf("%v ceiling %g: hit %s (E=%g) was traced", mt, ceiling, h.TargetID, h.EValue)
					}
					continue
				}
				traced++
				if h.Alignment == nil || !reflect.DeepEqual(h.Alignment, all.Hits[i].Alignment) {
					t.Errorf("%v ceiling %g: hit %s (E=%g) carries %+v, the all-traced scan %+v", mt, ceiling, h.TargetID, h.EValue, h.Alignment, all.Hits[i].Alignment)
				}
			}
			if skipped == 0 || (traced == 0) != (ceiling == TraceNone) {
				t.Errorf("%v ceiling %g: %d traced, %d skipped; the case is vacuous", mt, ceiling, traced, skipped)
			}
		}
		for _, h := range all.Hits {
			if h.Alignment == nil {
				t.Errorf("%v: the zero ceiling left hit %s untraced", mt, h.TargetID)
			}
		}
	}
}

// TestSearchProteinTracesWhatItsCallerReads: SearchProtein lowers the
// ceiling to InclusionE in a round whose Result it drops — and only there.
// With recruits, the returned round is bitwise the one two all-traced scans
// give (so the profile between them was built from the same rows), under
// the caller's ceiling; with none, the first round is returned, traced as a
// one-round search traces it.
func TestSearchProteinTracesWhatItsCallerReads(t *testing.T) {
	search := func(query *seq.Sequence, seqs []*seq.Sequence, residues int, opts SearchOptions) *Result {
		t.Helper()
		res, err := SearchProtein(query, func() RecordSource { return &SliceSource{Seqs: seqs} }, residues, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	query, db := repeatRichScan(t, seq.Protein)
	first, err := ScanRecords(BuildMust(t, query), query, &SliceSource{Seqs: db.Seqs}, db.TotalResidues(), SearchOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := BuildGappedAlignment(query, first.Hits, InclusionE)
	if len(rows) < 3 || len(rows) > len(first.Hits) {
		t.Fatalf("round one recruits %d rows of %d hits; want some, not all", len(rows)-1, len(first.Hits))
	}
	p2, err := BuildFromAlignment(query.ID, query.Type, rows)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ScanRecords(p2, query, &SliceSource{Seqs: db.Seqs}, db.TotalResidues(), SearchOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := search(query, db.Seqs, db.TotalResidues(), SearchOptions{Iterations: 2}); got.Rounds != 2 || !sameHits(got.Hits, want.Hits) {
		t.Errorf("two rounds diverge from two all-traced scans (rounds %d)", got.Rounds)
	}
	// The recruits are traced whatever the caller's ceiling: it governs the
	// Result the caller gets, not the rows the next profile is built from.
	none := search(query, db.Seqs, db.TotalResidues(), SearchOptions{Iterations: 2, TraceE: TraceNone})
	if !sameButAlignment(none.Hits, want.Hits) {
		t.Error("TraceNone changed round two's hits: round one's recruits were not traced")
	}
	for _, h := range none.Hits {
		if h.Alignment != nil {
			t.Errorf("TraceNone: returned hit %s was traced", h.TargetID)
		}
	}

	// Nothing recruited: eight residues of the query in a random target
	// report at E ≈ 0.01, above InclusionE.
	g := seq.NewGenerator(rng.New(9))
	query = g.Random("query", seq.Protein, 200)
	null := makeDB(t, seqdb.Spec{Name: "null", Type: seq.Protein, NumSeqs: 100, MeanLen: 180, Seed: 10})
	weak := g.Random("weak", seq.Protein, 150)
	copy(weak.Residues[60:], query.Residues[80:88])
	seqs := append(null.Seqs, weak)
	residues := null.TotalResidues() + weak.Len()
	one := search(query, seqs, residues, SearchOptions{Iterations: 1})
	if len(one.Hits) == 0 || one.Hits[0].EValue <= InclusionE {
		t.Fatalf("want hits, none recruited; got %+v", one.Hits)
	}
	two := search(query, seqs, residues, SearchOptions{Iterations: 2})
	if two.Rounds != 1 || !sameHits(two.Hits, one.Hits) {
		t.Errorf("a search that recruits nothing returns %+v after %d rounds, want round one as a one-round search traces it: %+v", two.Hits, two.Rounds, one.Hits)
	}
	for _, h := range two.Hits {
		if h.Alignment == nil {
			t.Errorf("hit %s of the returned round is untraced", h.TargetID)
		}
	}
}

// TestHitOrderIsTotal: two bands of one target can tie on E-value exactly,
// and sort.Sort is not stable, so with (EValue, TargetID) alone the band the
// dedup keeps — its diagonal, its Viterbi score, its alignment — followed
// the sort's pivots, i.e. what else the shard's hit slice held. Permuting the
// pre-sort slice (with its pendingTraces) must not change a survivor.
func TestHitOrderIsTotal(t *testing.T) {
	query, db := repeatRichScan(t, seq.Protein)
	s := newScanState(BuildMust(t, query), query, db.TotalResidues(), metering.Nop{})
	defer s.release()
	for _, rec := range db.Seqs {
		s.scanRecord(rec)
	}
	hits := append([]Hit(nil), s.res.Hits...)
	traces := append([]pendingTrace(nil), s.ws.traces...)
	ties := 0
	for i := range hits {
		for j := i + 1; j < len(hits); j++ {
			if hits[i].TargetID == hits[j].TargetID && hits[i].EValue == hits[j].EValue && hits[i].Diagonal != hits[j].Diagonal {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two bands of one target tie on E-value; the test is vacuous")
	}
	s.keepBest(SearchOptions{}, false)
	want := append([]Hit(nil), s.res.Hits...)
	for seed := int64(1); seed <= 8; seed++ {
		order := rand.New(rand.NewSource(seed)).Perm(len(hits))
		s.res.Hits, s.ws.traces = s.res.Hits[:0], s.ws.traces[:0]
		for _, i := range order {
			s.res.Hits = append(s.res.Hits, hits[i])
			s.ws.traces = append(s.ws.traces, traces[i])
		}
		s.keepBest(SearchOptions{}, false)
		if got := s.res.Hits; !sameHits(got, want) {
			t.Errorf("seed %d: %d tied pairs, and the survivors depend on the order the hits were found in", seed, ties)
			for i := 0; i < len(got) && i < len(want); i++ {
				if !sameHits(got[i:i+1], want[i:i+1]) {
					t.Logf("first difference, hit %d: %s diagonal %d Viterbi %g, want %s diagonal %d Viterbi %g", i,
						got[i].TargetID, got[i].Diagonal, got[i].ViterbiScore, want[i].TargetID, want[i].Diagonal, want[i].ViterbiScore)
					break
				}
			}
		}
	}
}

// TestSeedIndexRebuildsOnContentOnly: a pooled workspace outlives its
// queries, so the index compares what it indexed by content — the same
// residues again leave the tables as they are, different residues (at the
// same length, and in the same backing array, where a pointer comparison
// would say "unchanged") rebuild them.
func TestSeedIndexRebuildsOnContentOnly(t *testing.T) {
	g := seq.NewGenerator(rng.New(131))
	a, b := g.Random("a", seq.Protein, 120), g.Random("b", seq.Protein, 120)
	targets := []*seq.Sequence{g.Mutate(a, "ha", 0.2), g.Mutate(b, "hb", 0.2), g.Random("r", seq.Protein, 150)}
	candidates := func(idx *seedIndex) [][]int {
		var out [][]int
		for _, tg := range targets {
			out = append(out, append([]int(nil), idx.candidates(tg, 2, maxDiagonals, 2*BandHalfWidth, metering.Nop{})...))
		}
		return out
	}
	wantA, wantB := candidates(buildSeedIndex(a, 3)), candidates(buildSeedIndex(b, 3))
	if reflect.DeepEqual(wantA, wantB) {
		t.Fatal("both queries give the same candidates; the test is vacuous")
	}

	var idx seedIndex
	for round := 0; round < 3; round++ {
		for _, q := range []struct {
			s    *seq.Sequence
			want [][]int
		}{{a, wantA}, {b, wantB}} {
			idx.build(q.s, 3)
			if got := candidates(&idx); !reflect.DeepEqual(got, q.want) {
				t.Fatalf("round %d, query %s: a reused index gives %v, a fresh one %v", round, q.s.ID, got, q.want)
			}
		}
	}

	// The same residues again, behind another pointer: no table is written.
	// A sentinel in the offsets would not survive a rebuild's clear.
	idx.build(a, 3)
	idx.off[len(idx.off)-1] = -7
	idx.build(&seq.Sequence{ID: "a2", Type: a.Type, Residues: append([]byte(nil), a.Residues...)}, 3)
	if idx.off[len(idx.off)-1] != -7 {
		t.Error("building the same residues twice rewrote the seed tables")
	}
	// Other residues behind the same pointer, a longer seed, another
	// alphabet: each rebuilds.
	copy(a.Residues, b.Residues)
	idx.build(a, 3)
	if got := candidates(&idx); idx.off[len(idx.off)-1] == -7 || !reflect.DeepEqual(got, wantB) {
		t.Errorf("residues changed in place: the index gives %v, a fresh one %v", got, wantB)
	}
	idx.build(a, 4)
	if want := buildSeedIndex(a, 4); idx.k != 4 || !reflect.DeepEqual(idx.pos, want.pos) || !reflect.DeepEqual(idx.off, want.off) {
		t.Error("a longer seed over the same residues did not rebuild the tables")
	}
	rna := &seq.Sequence{ID: "n", Type: seq.RNA, Residues: make([]byte, 120)}
	idx.build(rna, 4)
	if want := buildSeedIndex(rna, 4); idx.size != want.size || !reflect.DeepEqual(idx.off, want.off) {
		t.Error("another alphabet at the same seed length did not rebuild the tables")
	}
}
