package hmmer

import (
	"testing"

	"afsysbench/internal/metering"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
	"afsysbench/internal/seqdb"
)

// MSA search hot-path benchmarks: two arms per scan shape on identical
// inputs, both through the cascade every request takes (seed filter →
// banded Viterbi → banded Forward → traceback). The reference arm is
// referenceScanRecords — the test-only oracle kernels with their original
// per-call allocation behavior, every Forward survivor traced at once; the
// optimized arm is ScanRecords: the transposed profile layout, pooled
// workspaces, the one branch-free band row function, the band row-max
// cutoff and tracebacks for kept hits only. `make bench` runs these with
// -benchmem, for looking at one arm while working on it; the numbers of
// record are the repo benchmark's, on the suite's own databases:
// `sh bench/run.sh --trace 1` → hmmer.protein_ns_per_cell,
// hmmer.nucleotide_ns_per_cell and hmmer.allocs_per_scan.

func benchDB(b *testing.B, mt seq.MoleculeType, n, meanLen int) (*Profile, *seq.Sequence, *seqdb.DB) {
	b.Helper()
	g := seq.NewGenerator(rng.New(61))
	query := g.Random("query", mt, 150)
	// ~1% of records are true homologs: a homolog-heavy DB would hide the
	// per-record scan cost behind the Forward and traceback cost of the hits
	// themselves.
	db, err := seqdb.Generate(seqdb.Spec{
		Name: "bench", Type: mt, NumSeqs: n, MeanLen: meanLen,
		Homologs: []*seq.Sequence{query}, HomologsPerQuery: n / 100, Seed: 62,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := BuildFromQuery(query)
	if err != nil {
		b.Fatal(err)
	}
	return p, query, db
}

func benchScanVariants(b *testing.B, mt seq.MoleculeType, n, meanLen int) {
	p, query, db := benchDB(b, mt, n, meanLen)
	run := func(scan func() *Result) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := scan(); res.Scanned != len(db.Seqs) {
					b.Fatalf("scanned %d of %d", res.Scanned, len(db.Seqs))
				}
			}
		}
	}
	b.Run("reference", run(func() *Result {
		return referenceScanRecords(p, query, &SliceSource{Seqs: db.Seqs}, db.TotalResidues())
	}))
	b.Run("optimized", run(func() *Result {
		res, err := ScanRecords(p, query, &SliceSource{Seqs: db.Seqs}, db.TotalResidues(), SearchOptions{}, metering.Nop{})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}))
}

func BenchmarkScanProtein(b *testing.B) {
	benchScanVariants(b, seq.Protein, 400, 180)
}

func BenchmarkScanNucleotide(b *testing.B) {
	// Longer mean length pushes a fraction of records through the windowed
	// nhmmer path, covering both scan shapes.
	benchScanVariants(b, seq.RNA, 120, 400)
}

// BenchmarkForward times the two Forward implementations alone on one
// 400-residue homolog of a 484-column profile: the log-space oracle
// (reference) and the scaled odds-space kernel the scan runs (optimized).
func BenchmarkForward(b *testing.B) {
	g := seq.NewGenerator(rng.New(65))
	query := g.Random("query", seq.Protein, 484)
	target := g.Mutate(query, "target", 0.2)
	target.Residues = target.Residues[:400]
	p, err := BuildFromQuery(query)
	if err != nil {
		b.Fatal(err)
	}
	even, odd := bandCells(0, target.Len(), 0, BandHalfWidth, p.M)
	cells := even + odd
	perCell := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
	}
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = referenceForward(p, target, 0, BandHalfWidth, metering.Nop{})
		}
		perCell(b)
	})
	b.Run("optimized", func(b *testing.B) {
		ws := takeScanWorkspace()
		defer releaseScanWorkspace(ws)
		for i := 0; i < b.N; i++ {
			benchSink = forward(p, target, 0, BandHalfWidth, ws, metering.Nop{})
		}
		perCell(b)
	})
}

var benchSink float64

// BenchmarkBandedViterbi times the band recurrence under its two drivers —
// the scoring pass (score) and the traceback over every row (trace) — in
// ns/cell against the oracle kernels, cycling through 64 distinct targets
// of a 484-column profile per iteration set: half random sequence, half
// mutated homologs at 5–45 % divergence, a third of them off the seeded
// diagonal. One repeated target lets the branch predictor memorise the
// data: it read 12 ns/cell for a compare-and-branch kernel that the cold
// request mix, like this benchmark, shows at 17.
func BenchmarkBandedViterbi(b *testing.B) {
	g := seq.NewGenerator(rng.New(69))
	query := g.Random("query", seq.Protein, 484)
	p, err := BuildFromQuery(query)
	if err != nil {
		b.Fatal(err)
	}
	type band struct {
		target *seq.Sequence
		diag   int
	}
	var bands []band
	var cells uint64
	for i := 0; i < 64; i++ {
		t := g.Random("rnd", seq.Protein, 300+5*i)
		if i%2 == 1 {
			t = g.Mutate(query, "hom", 0.05+0.4*float64(i)/64)
			t.Residues = t.Residues[:300+2*i]
		}
		d := []int{0, 0, 7}[i%3]
		even, odd := bandCells(0, t.Len(), d, BandHalfWidth, p.M)
		cells += even + odd
		bands = append(bands, band{t, d})
	}
	run := func(kernel func(band) float32) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, bd := range bands {
					benchSink += float64(kernel(bd))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
		}
	}
	ws := takeScanWorkspace()
	defer releaseScanWorkspace(ws)
	b.Run("score/reference", run(func(bd band) float32 {
		return referenceBandedViterbi(p, bd.target, bd.diag, BandHalfWidth, metering.Nop{}).Score
	}))
	b.Run("score/optimized", run(func(bd band) float32 {
		res, _ := bandedViterbi(p, bd.target, bd.diag, BandHalfWidth, ws, negInf, metering.Nop{})
		return res.Score
	}))
	b.Run("trace/reference", run(func(bd band) float32 {
		res, _ := referenceBandedViterbiAlign(p, bd.target, bd.diag, BandHalfWidth, metering.Nop{})
		return res.Score
	}))
	b.Run("trace/optimized", run(func(bd band) float32 {
		res, _ := traceBand(p, bd.target.Residues, bd.diag, BandHalfWidth, bd.target.Len(), ws)
		return res.Score
	}))
}

// BenchmarkScanRecordSteadyState isolates the per-record path a database
// pass spends nearly all its time in: one warm scanState, no-hit records
// streamed through it (a realistic pass reports hits on a tiny fraction of
// records, and hit records legitimately allocate: hit list growth + traceback).
// This is the path the workspace pooling takes to 0 allocs/op.
func BenchmarkScanRecordSteadyState(b *testing.B) {
	g := seq.NewGenerator(rng.New(63))
	query := g.Random("query", seq.Protein, 150)
	db, err := seqdb.Generate(seqdb.Spec{Name: "steady", Type: seq.Protein, NumSeqs: 64, MeanLen: 180, Seed: 64})
	if err != nil {
		b.Fatal(err)
	}
	p, err := BuildFromQuery(query)
	if err != nil {
		b.Fatal(err)
	}
	s := newScanState(p, query, db.TotalResidues(), metering.Nop{})
	defer s.release()
	for _, tg := range db.Seqs { // warm the workspace to its high-water marks
		s.scanRecord(tg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.scanRecord(db.Seqs[i%len(db.Seqs)])
	}
}

// TestScanSteadyStateZeroAllocs pins the pooling contract: once the
// workspace has grown to the shard's record sizes, scanning a no-hit record
// allocates nothing at all.
func TestScanSteadyStateZeroAllocs(t *testing.T) {
	g := seq.NewGenerator(rng.New(67))
	query := g.Random("query", seq.Protein, 150)
	// Pure random records: realistic steady state is "no hit" for virtually
	// every record, and hit records legitimately allocate (hit list growth + traceback).
	db, err := seqdb.Generate(seqdb.Spec{Name: "za", Type: seq.Protein, NumSeqs: 32, MeanLen: 200, Seed: 68})
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildFromQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	s := newScanState(p, query, db.TotalResidues(), metering.Nop{})
	defer s.release()
	for _, tg := range db.Seqs {
		s.scanRecord(tg)
	}
	if len(s.res.Hits) != 0 {
		t.Fatalf("random DB produced %d hits; pick another seed", len(s.res.Hits))
	}
	avg := testing.AllocsPerRun(20, func() {
		for _, tg := range db.Seqs {
			s.scanRecord(tg)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state scan allocates %.1f times per %d records, want 0", avg, len(db.Seqs))
	}
}
