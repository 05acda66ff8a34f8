package hmmer

import (
	"context"
	"errors"
	"strings"
	"testing"

	"afsysbench/internal/metering"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
	"afsysbench/internal/seqdb"
)

func makeDB(t *testing.T, spec seqdb.Spec) *seqdb.DB {
	t.Helper()
	db, err := seqdb.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func sliceSrc(db *seqdb.DB) func() RecordSource {
	return func() RecordSource { return &SliceSource{Seqs: db.Seqs} }
}

// readerSource hands out src's records and, as it hands each one out,
// records into m the reader events ReaderEvents gives for it (at a zero
// footprint): the events a scan's buffering layer recorded, in the same
// place of the stream, before the reader lane left the scan.
type readerSource struct {
	src RecordSource
	m   metering.Meter
}

func (s readerSource) Next() (*seq.Sequence, bool) {
	rec, ok := s.src.Next()
	if ok {
		for _, ev := range ReaderEvents(uint64(len(rec.Residues)), 0) {
			s.m.Record(ev)
		}
	}
	return rec, ok
}

// isReaderFunc reports whether f is one of the reader lane's functions.
func isReaderFunc(f metering.Func) bool {
	return f == metering.CopyToIter || f == metering.AddBuf || f == metering.SeeBuf
}

// buildSeedIndex returns a standalone index of q's k-mers; a scan rebuilds
// its workspace's index in place instead.
func buildSeedIndex(q *seq.Sequence, k int) *seedIndex {
	idx := new(seedIndex)
	idx.build(q, k)
	return idx
}

func TestSliceSource(t *testing.T) {
	g := seq.NewGenerator(rng.New(1))
	s := &SliceSource{Seqs: []*seq.Sequence{g.Random("a", seq.Protein, 10), g.Random("b", seq.Protein, 10)}}
	ids := []string{}
	for {
		rec, ok := s.Next()
		if !ok {
			break
		}
		ids = append(ids, rec.ID)
	}
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("ids = %v", ids)
	}
}

// TestBufferPreservesRecords: a scan hands its kernels the source's own
// record, unmodified, and records none of the buffering layer's work; that
// work, per record, is ReaderEvents' three events — copy_to_iter first,
// its working set the database's footprint, then addbuf and seebuf.
func TestBufferPreservesRecords(t *testing.T) {
	g := seq.NewGenerator(rng.New(2))
	orig := g.Random("r", seq.Protein, 333)
	residues := append([]byte(nil), orig.Residues...)
	var m metering.Log
	res, err := ScanRecords(BuildMust(t, orig), orig, &SliceSource{Seqs: []*seq.Sequence{orig}}, orig.Len(), SearchOptions{}, &m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 1 || len(res.Hits) != 1 || res.Hits[0].Target != orig {
		t.Fatalf("scanned %d, %d hits: the self-hit must point at the source's record", res.Scanned, len(res.Hits))
	}
	if string(orig.Residues) != string(residues) {
		t.Fatal("residues corrupted in the scan")
	}
	for _, ev := range m {
		if isReaderFunc(ev.Func) {
			t.Fatalf("the scan recorded %s, the database's work", ev.Func)
		}
	}
	evs := ReaderEvents(uint64(orig.Len()), 1<<30)
	for i, fn := range []metering.Func{metering.CopyToIter, metering.AddBuf, metering.SeeBuf} {
		if ev := evs[i]; ev.Func != fn || ev.Instructions == 0 || ev.Bytes == 0 {
			t.Errorf("event %d is %s with %d instructions and %d bytes, want %s with both non-zero", i, ev.Func, ev.Instructions, ev.Bytes, fn)
		}
	}
	if evs[0].WorkingSet != 1<<30 {
		t.Error("copy_to_iter's working set must be the DB footprint")
	}
}

func TestSeedIndexFindsIdenticalDiagonal(t *testing.T) {
	g := seq.NewGenerator(rng.New(3))
	q := g.Random("q", seq.Protein, 100)
	idx := buildSeedIndex(q, 3)
	diags := idx.candidates(q, 2, 64, 18, metering.Nop{})
	found := false
	for _, d := range diags {
		if d >= -9 && d <= 9 {
			found = true
		}
	}
	if !found {
		t.Errorf("self-search candidates %v missing diagonal ~0", diags)
	}
}

// TestRollingHashMatchesFullHash covers the (alphabet, k) pairs a scan
// builds — the index is direct-addressed, so alphabet^k must fit a table —
// and k = 2.
func TestRollingHashMatchesFullHash(t *testing.T) {
	g := seq.NewGenerator(rng.New(11))
	for _, tc := range []struct {
		mt seq.MoleculeType
		k  int
	}{
		{seq.Protein, seedK(seq.Protein)}, {seq.RNA, seedK(seq.RNA)}, {seq.DNA, seedK(seq.DNA)},
		{seq.Protein, 2}, {seq.RNA, 2},
	} {
		k := tc.k
		q := g.Random("q", tc.mt, 200)
		idx := buildSeedIndex(q, k)
		// Every window of an independent target must roll to exactly the
		// value a from-scratch hash computes (wraparound arithmetic is
		// exact, so these are equal, not just collision-free).
		tgt := g.Random("t", tc.mt, 150)
		h := idx.hash(tgt.Residues[:k])
		top := idx.topWeight()
		for i := 0; i+k <= tgt.Len(); i++ {
			if i > 0 {
				h = idx.roll(h, tgt.Residues[i-1], tgt.Residues[i+k-1], top)
			}
			if want := idx.hash(tgt.Residues[i : i+k]); h != want {
				t.Fatalf("%v k=%d pos=%d rolled hash %#x != full hash %#x", tc.mt, k, i, h, want)
			}
		}
		// And the rolled index must match one built with from-scratch
		// hashing position by position.
		ref := make(map[uint32][]int32)
		for i := 0; i+k <= q.Len(); i++ {
			fh := idx.hash(q.Residues[i : i+k])
			ref[fh] = append(ref[fh], int32(i))
		}
		if len(ref) != idx.distinct {
			t.Fatalf("%v k=%d index has %d buckets, reference %d", tc.mt, k, idx.distinct, len(ref))
		}
		filled := 0
		for fh := uint32(0); fh < idx.size; fh++ {
			got, want := idx.pos[idx.off[fh]:idx.off[fh+1]], ref[fh]
			if len(got) != len(want) {
				t.Fatalf("%v k=%d bucket %#x = %v, want %v", tc.mt, k, fh, got, want)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%v k=%d bucket %#x = %v, want %v", tc.mt, k, fh, got, want)
				}
			}
			filled += len(got)
		}
		if filled != q.Len()-k+1 {
			t.Fatalf("%v k=%d buckets hold %d positions, want %d", tc.mt, k, filled, q.Len()-k+1)
		}
	}
}

// TestSeedIndexOutOfAlphabetTargetMisses: a target byte at or beyond the
// alphabet length hashes outside the k-mer table (or onto some other
// k-mer's slot, as it did in a map) and must read as a miss, not index out
// of range.
func TestSeedIndexOutOfAlphabetTargetMisses(t *testing.T) {
	g := seq.NewGenerator(rng.New(12))
	for _, mt := range []seq.MoleculeType{seq.Protein, seq.RNA} {
		q := g.Random("q", mt, 120)
		idx := buildSeedIndex(q, seedK(mt))
		junk := g.Random("t", mt, 200)
		for i := range junk.Residues {
			junk.Residues[i] = byte(200 + i%56)
		}
		if got := idx.candidates(junk, 1, 64, 18, metering.Nop{}); len(got) != 0 {
			t.Errorf("%v: out-of-alphabet target seeded diagonals %v", mt, got)
		}
		// The index is still good for a real target afterwards.
		if got := idx.candidates(q, minSeeds(mt), 64, 18, metering.Nop{}); len(got) == 0 {
			t.Errorf("%v: self-search found no diagonal after an out-of-alphabet target", mt)
		}
	}
}

func TestSeedIndexShortTarget(t *testing.T) {
	g := seq.NewGenerator(rng.New(4))
	q := g.Random("q", seq.Protein, 50)
	idx := buildSeedIndex(q, 3)
	if got := idx.candidates(g.Random("t", seq.Protein, 2), 2, 64, 18, metering.Nop{}); got != nil {
		t.Errorf("short target candidates = %v, want nil", got)
	}
}

func TestPolyQInflatesCandidates(t *testing.T) {
	g := seq.NewGenerator(rng.New(5))
	diverse := g.Random("div", seq.Protein, 300)
	polyQ := g.WithRepeat("pq", seq.Protein, 300, 90, seq.QIndex)
	spec := seqdb.Spec{Name: "lc", Type: seq.Protein, NumSeqs: 60, MeanLen: 150, LowComplexFrac: 0.3, Seed: 6}
	db := makeDB(t, spec)

	count := func(q *seq.Sequence) int {
		idx := buildSeedIndex(q, 3)
		total := 0
		for _, s := range db.Seqs {
			total += len(idx.candidates(s, 2, 64, 18, metering.Nop{}))
		}
		return total
	}
	cDiv, cPQ := count(diverse), count(polyQ)
	if cPQ <= cDiv*2 {
		t.Errorf("poly-Q candidates (%d) not well above diverse (%d) — promo effect missing", cPQ, cDiv)
	}
}

func TestSearchProteinFindsPlantedHomologs(t *testing.T) {
	g := seq.NewGenerator(rng.New(7))
	query := g.Random("query", seq.Protein, 200)
	spec := seqdb.Spec{
		Name: "udb", Type: seq.Protein, NumSeqs: 80, MeanLen: 180,
		Homologs: []*seq.Sequence{query}, HomologsPerQuery: 6, Seed: 8,
	}
	db := makeDB(t, spec)
	res, err := SearchProtein(query, sliceSrc(db), db.TotalResidues(), SearchOptions{Iterations: 1}, metering.Nop{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != db.NumSeqs() {
		t.Errorf("scanned %d, want %d", res.Scanned, db.NumSeqs())
	}
	homHits := 0
	for _, h := range res.Hits {
		if strings.Contains(h.TargetID, "|hom") && h.EValue < 1e-3 {
			homHits++
		}
	}
	if homHits < 3 {
		t.Errorf("found %d/6 planted homologs with E<1e-3", homHits)
	}
}

func TestSearchRandomDBNoSignificantHits(t *testing.T) {
	g := seq.NewGenerator(rng.New(9))
	query := g.Random("query", seq.Protein, 200)
	db := makeDB(t, seqdb.Spec{Name: "null", Type: seq.Protein, NumSeqs: 100, MeanLen: 180, Seed: 10})
	res, err := SearchProtein(query, sliceSrc(db), db.TotalResidues(), SearchOptions{Iterations: 1}, metering.Nop{})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hits {
		if h.EValue < 1e-4 {
			t.Errorf("random target %s got E=%g — calibration too permissive", h.TargetID, h.EValue)
		}
	}
}

func TestIterativeSearchRecruitsMore(t *testing.T) {
	g := seq.NewGenerator(rng.New(11))
	query := g.Random("query", seq.Protein, 250)
	spec := seqdb.Spec{
		Name: "it", Type: seq.Protein, NumSeqs: 60, MeanLen: 200,
		Homologs: []*seq.Sequence{query}, HomologsPerQuery: 10, Seed: 12,
	}
	db := makeDB(t, spec)
	r1, err := SearchProtein(query, sliceSrc(db), db.TotalResidues(), SearchOptions{Iterations: 1}, metering.Nop{})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := SearchProtein(query, sliceSrc(db), db.TotalResidues(), SearchOptions{Iterations: 3}, metering.Nop{})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Rounds < 2 {
		t.Skipf("nothing recruited in round 1 (hits=%d); iteration short-circuited", len(r1.Hits))
	}
	if len(r3.Hits) < len(r1.Hits) {
		t.Errorf("iterative search lost hits: %d -> %d", len(r1.Hits), len(r3.Hits))
	}
}

func TestSearchTypeErrors(t *testing.T) {
	g := seq.NewGenerator(rng.New(13))
	rna := g.Random("r", seq.RNA, 50)
	prot := g.Random("p", seq.Protein, 50)
	db := makeDB(t, seqdb.Spec{Name: "x", Type: seq.Protein, NumSeqs: 5, MeanLen: 60, Seed: 1})
	if _, err := SearchProtein(rna, sliceSrc(db), 100, SearchOptions{}, nil); err == nil {
		t.Error("RNA query accepted by SearchProtein")
	}
	if _, err := SearchNucleotide(prot, sliceSrc(db), 100, SearchOptions{}, nil); err == nil {
		t.Error("protein query accepted by SearchNucleotide")
	}
}

func TestSearchNucleotideFindsHomolog(t *testing.T) {
	g := seq.NewGenerator(rng.New(15))
	query := g.Random("rna", seq.RNA, 150)
	spec := seqdb.Spec{
		Name: "rfam", Type: seq.RNA, NumSeqs: 60, MeanLen: 200,
		Homologs: []*seq.Sequence{query}, HomologsPerQuery: 4, Seed: 16,
	}
	db := makeDB(t, spec)
	res, err := SearchNucleotide(query, sliceSrc(db), db.TotalResidues(), SearchOptions{}, metering.Nop{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range res.Hits {
		if strings.Contains(h.TargetID, "|hom") && h.EValue < 0.01 {
			found = true
		}
	}
	if !found {
		t.Error("no planted RNA homolog found")
	}
}

func TestSearchDeduplicatesTargets(t *testing.T) {
	g := seq.NewGenerator(rng.New(19))
	query := g.Random("query", seq.Protein, 120)
	db := makeDB(t, seqdb.Spec{
		Name: "dup", Type: seq.Protein, NumSeqs: 10, MeanLen: 100,
		Homologs: []*seq.Sequence{query}, HomologsPerQuery: 2, Seed: 20,
	})
	res, err := SearchProtein(query, sliceSrc(db), db.TotalResidues(), SearchOptions{Iterations: 1}, metering.Nop{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, h := range res.Hits {
		if seen[h.TargetID] {
			t.Fatalf("duplicate hit for %s", h.TargetID)
		}
		seen[h.TargetID] = true
	}
}

func TestSearchMeteringCoversKernels(t *testing.T) {
	g := seq.NewGenerator(rng.New(21))
	query := g.Random("query", seq.Protein, 150)
	db := makeDB(t, seqdb.Spec{
		Name: "met", Type: seq.Protein, NumSeqs: 40, MeanLen: 150,
		Homologs: []*seq.Sequence{query}, HomologsPerQuery: 4, Seed: 22,
	})
	var m metering.Accumulator
	if _, err := SearchProtein(query, sliceSrc(db), db.TotalResidues(), SearchOptions{Iterations: 1}, &m); err != nil {
		t.Fatal(err)
	}
	by := m.Ledger()
	for _, fn := range []metering.Func{metering.CalcBand9, metering.CalcBand10, metering.SeedFilter} {
		if by[fn].Instructions == 0 {
			t.Errorf("function %s reported no work", fn)
		}
	}
	for _, fn := range []metering.Func{metering.AddBuf, metering.SeeBuf, metering.CopyToIter} {
		if by[fn] != (metering.Tally{}) {
			t.Errorf("the scan recorded %s, the database's work", fn)
		}
	}
	// Shape check against Table IV: DP kernels must dominate the buffer
	// layer, which is the database's records through ReaderEvents, in
	// instruction count.
	dp := by[metering.CalcBand9].Instructions + by[metering.CalcBand10].Instructions
	var bufWork uint64
	for _, rec := range db.Seqs {
		evs := ReaderEvents(uint64(rec.Len()), 0)
		bufWork += evs[1].Instructions + evs[2].Instructions
	}
	if dp <= bufWork {
		t.Errorf("DP kernels (%d) do not dominate buffering (%d)", dp, bufWork)
	}
}

func TestSearchCtxCancellation(t *testing.T) {
	g := seq.NewGenerator(rng.New(5))
	query := g.Random("q", seq.Protein, 120)
	db := makeDB(t, seqdb.Spec{Name: "ctxdb", Type: seq.Protein, NumSeqs: 200, MeanLen: 150, Seed: 11})

	done, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-cancelled context aborts before any round.
	if _, err := SearchProteinCtx(done, query, sliceSrc(db), db.TotalResidues(), SearchOptions{Iterations: 2}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchProteinCtx err = %v", err)
	}
	prof, err := BuildFromQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScanRecordsCtx(done, prof, query, &SliceSource{Seqs: db.Seqs}, db.TotalResidues(), SearchOptions{}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("ScanRecordsCtx err = %v", err)
	}
	rna := g.Random("r", seq.RNA, 80)
	rdb := makeDB(t, seqdb.Spec{Name: "ctxrna", Type: seq.RNA, NumSeqs: 50, MeanLen: 120, Seed: 12})
	if _, err := SearchNucleotideCtx(done, rna, sliceSrc(rdb), rdb.TotalResidues(), SearchOptions{}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchNucleotideCtx err = %v", err)
	}

	// Mid-scan cancellation: cancel from inside the record stream and
	// verify the scan stops within one ctx-check stride (32 records).
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	streamed := 0
	src := &cancellingSource{inner: &SliceSource{Seqs: db.Seqs}, after: 10, cancel: cancel2, n: &streamed}
	if _, err := ScanRecordsCtx(ctx2, prof, query, src, db.TotalResidues(), SearchOptions{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan err = %v", err)
	}
	if streamed > 10+32 {
		t.Errorf("scan consumed %d records after cancellation at 10", streamed)
	}

	// The background-context wrappers still complete normally.
	res, err := SearchProtein(query, sliceSrc(db), db.TotalResidues(), SearchOptions{Iterations: 1}, nil)
	if err != nil || res == nil {
		t.Fatalf("uncancelled search failed: %v", err)
	}
}

// cancellingSource cancels a context after streaming `after` records.
type cancellingSource struct {
	inner  RecordSource
	after  int
	cancel context.CancelFunc
	n      *int
}

func (c *cancellingSource) Next() (*seq.Sequence, bool) {
	s, ok := c.inner.Next()
	if ok {
		*c.n++
		if *c.n == c.after {
			c.cancel()
		}
	}
	return s, ok
}
