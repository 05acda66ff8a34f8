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
// banded Viterbi → banded Forward → traceback). The reference arm runs
// through a MatchT-stripped profile copy, which routes every kernel to the
// reference implementations with their original per-call allocation
// behavior; the optimized arm uses the transposed profile layout, pooled
// workspaces and the band row-max cutoff. `make bench` runs these with
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

func runScanBench(b *testing.B, p *Profile, query *seq.Sequence, db *seqdb.DB) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := ScanRecords(p, query, &SliceSource{Seqs: db.Seqs}, db.TotalResidues(), SearchOptions{}, metering.Nop{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Scanned != len(db.Seqs) {
			b.Fatalf("scanned %d of %d", res.Scanned, len(db.Seqs))
		}
	}
}

func benchScanVariants(b *testing.B, mt seq.MoleculeType, n, meanLen int) {
	p, query, db := benchDB(b, mt, n, meanLen)
	stripped := *p
	stripped.MatchT = nil
	b.Run("reference", func(b *testing.B) { runScanBench(b, &stripped, query, db) })
	b.Run("optimized", func(b *testing.B) { runScanBench(b, p, query, db) })
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
	cells := countBandCells(0, target.Len(), 0, BandHalfWidth, p.M)
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

// BenchmarkScanRecordSteadyState isolates the per-record path a database
// pass spends nearly all its time in: one warm scanState, no-hit records
// streamed through it (a realistic pass reports hits on a tiny fraction of
// records, and hit records legitimately allocate: target clone + traceback).
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
	s.recycling = true
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
	// every record, and hit records legitimately allocate (clone + traceback).
	db, err := seqdb.Generate(seqdb.Spec{Name: "za", Type: seq.Protein, NumSeqs: 32, MeanLen: 200, Seed: 68})
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildFromQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	s := newScanState(p, query, db.TotalResidues(), metering.Nop{})
	s.recycling = true
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
