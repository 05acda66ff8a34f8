package hmmer

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"afsysbench/internal/metering"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
	"afsysbench/internal/seqdb"
)

// Equivalence tests against reference_test.go, on both alphabets and on both
// profile construction paths. The product Viterbi kernels — one branch-free
// row function under the scoring, traceback and unbanded drivers, the
// row-max cutoff, a traceback that re-derives its pointers — must reproduce
// the reference (column-major, a test per cell, per-call allocation) kernels
// bitwise: same float bits, not just approximately equal; max-plus
// arithmetic is exact, so no tolerance is needed or allowed. Forward is a different
// algorithm from its oracle (scaled odds space against log-sum-exp) and is
// held to forwardTolerance instead; everything derived from it (Bits,
// EValue) moves by no more than that allows, and nothing else in a hit
// list may move at all.

// forwardTolerance is the contract between the odds-space Forward kernel
// and the log-space referenceForward, for a score of magnitude |ref|.
func forwardTolerance(ref float64) float64 { return 1e-9 + 1e-12*math.Abs(ref) }

func forwardClose(got, ref float64) bool { return math.Abs(got-ref) <= forwardTolerance(ref) }

// fuzzProfiles builds a mix of query-built and alignment-built profiles for
// one molecule type from a deterministic generator.
func fuzzProfiles(t *testing.T, g *seq.Generator, mt seq.MoleculeType) []*Profile {
	t.Helper()
	var out []*Profile
	for _, ln := range []int{7, 40, 133} {
		q := g.Random("q", mt, ln)
		p, err := BuildFromQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
		// Alignment-built profile: query plus two mutated rows.
		rows := [][]byte{
			append([]byte(nil), q.Residues...),
			append([]byte(nil), g.Mutate(q, "m1", 0.2).Residues...),
			append([]byte(nil), g.Mutate(q, "m2", 0.4).Residues...),
		}
		ap, err := BuildFromAlignment("ali", mt, rows)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ap)
	}
	return out
}

func f32bits(x float32) uint32 { return math.Float32bits(x) }

func TestTransposedKernelsMatchReferenceBitwise(t *testing.T) {
	for _, mt := range []seq.MoleculeType{seq.Protein, seq.RNA} {
		g := seq.NewGenerator(rng.New(31))
		profiles := fuzzProfiles(t, g, mt)
		ws := takeScanWorkspace()
		defer releaseScanWorkspace(ws)
		for pi, p := range profiles {
			if !p.transposed() {
				t.Fatalf("profile %d (%v) missing transposed layout", pi, mt)
			}
			for ti := 0; ti < 12; ti++ {
				target := g.Random("t", mt, 20+17*ti)
				for _, d := range []int{11, 0, -5, p.M / 2} {
					refAli := referenceBandedViterbi(p, target, d, BandHalfWidth, metering.Nop{})
					optAli, bp := bandedViterbi(p, target, d, BandHalfWidth, ws, negInf, metering.Nop{})
					if bp != 0 {
						t.Fatalf("unarmed bandedViterbi pruned %d cells", bp)
					}
					if f32bits(refAli.Score) != f32bits(optAli.Score) || refAli != optAli {
						t.Fatalf("%v profile %d target %d diag %d: Viterbi mismatch ref=%+v opt=%+v", mt, pi, ti, d, refAli, optAli)
					}
					// The traceback over every row, and over the rows up to
					// the best cell only, as the scan runs it.
					refRes, refPath := referenceBandedViterbiAlign(p, target, d, BandHalfWidth, metering.Nop{})
					optRes, optPath := traceBand(p, target.Residues, d, BandHalfWidth, target.Len(), ws)
					_, cutPath := traceBand(p, target.Residues, d, BandHalfWidth, refRes.EndRow+1, ws)
					if refRes != optRes || refRes != refAli || !reflect.DeepEqual(refPath, optPath) || !reflect.DeepEqual(refPath, cutPath) {
						t.Fatalf("%v profile %d target %d diag %d: traceback mismatch\nref=%+v %+v\nopt=%+v %+v\ncut=%+v", mt, pi, ti, d, refRes, refPath, optRes, optPath, cutPath)
					}
					refF := referenceForward(p, target, d, BandHalfWidth, metering.Nop{})
					optF := forward(p, target, d, BandHalfWidth, ws, metering.Nop{})
					if !forwardClose(optF, refF) {
						t.Fatalf("%v profile %d target %d diag %d: Forward outside tolerance ref=%v opt=%v", mt, pi, ti, d, refF, optF)
					}
				}
				// The unbanded driver against the oracle's band kernel with
				// a band wide enough to hold every cell.
				full, wide := FullViterbi(p, target, nil), referenceBandedViterbi(p, target, 0, p.M+target.Len(), metering.Nop{})
				if full != wide {
					t.Fatalf("%v profile %d: FullViterbi %+v, reference over an all-covering band %+v", mt, pi, full, wide)
				}
			}
		}
	}
}

// TestPublicKernelsUseFallbackWithoutTransposedLayout pins what a Profile
// assembled by hand, without BuildTransposed, gets from every public entry
// point: the kernels run on a private copy with the derived tables built, so
// results equal the constructor-built profile's bit for bit and the
// caller's profile is not written to.
func TestPublicKernelsUseFallbackWithoutTransposedLayout(t *testing.T) {
	g := seq.NewGenerator(rng.New(37))
	q := g.Random("q", seq.Protein, 60)
	p, err := BuildFromQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	stripped := &Profile{
		Name: p.Name, Type: p.Type, M: p.M, K: p.K, Match: p.Match,
		InsertPenalty: p.InsertPenalty, Open: p.Open, Extend: p.Extend, Lambda: p.Lambda, Mu: p.Mu,
	}
	target := g.Mutate(q, "t", 0.2)
	if a, b := BandedViterbi(p, target, 0, BandHalfWidth, nil), BandedViterbi(stripped, target, 0, BandHalfWidth, nil); a != b {
		t.Errorf("BandedViterbi: %+v with tables, %+v without", a, b)
	}
	if a, b := FullViterbi(p, target, nil), FullViterbi(stripped, target, nil); a != b {
		t.Errorf("FullViterbi: %+v with tables, %+v without", a, b)
	}
	if a, b := Forward(p, target, 0, BandHalfWidth, nil), Forward(stripped, target, 0, BandHalfWidth, nil); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("Forward: %v with tables, %v without", a, b)
	}
	aRes, aPath := BandedViterbiAlign(p, target, 0, BandHalfWidth, nil)
	bRes, bPath := BandedViterbiAlign(stripped, target, 0, BandHalfWidth, nil)
	if aRes != bRes || !reflect.DeepEqual(aPath, bPath) {
		t.Errorf("BandedViterbiAlign: %+v %+v with tables, %+v %+v without", aRes, aPath, bRes, bPath)
	}
	db := makeDB(t, seqdb.Spec{
		Name: "hand", Type: seq.Protein, NumSeqs: 20, MeanLen: 80,
		Homologs: []*seq.Sequence{q}, HomologsPerQuery: 3, Seed: 38,
	})
	scan := func(p *Profile) []Hit {
		res, err := ScanRecords(p, q, &SliceSource{Seqs: db.Seqs}, db.TotalResidues(), SearchOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Hits
	}
	if a, b := scan(p), scan(stripped); len(a) == 0 || !sameHits(a, b) {
		t.Errorf("ScanRecords: hit lists diverge (or are empty):\nwith tables %+v\nwithout %+v", a, b)
	}
	if stripped.MatchT != nil || stripped.oddsT != nil || stripped.maxMatch != 0 {
		t.Error("a public kernel wrote derived tables into the caller's profile")
	}
}

// sameHits reports whether two hit lists from the product kernels are
// identical in every scoring field (float comparisons are bitwise) and in
// the traced alignment: threads and shards run the one Forward kernel, so
// nothing may move between them.
func sameHits(a, b []Hit) bool { return compareHits(a, b, false) }

// sameHitsAsReference compares the optimized cascade's hit list with the
// reference kernels': the same hits in the same order, with target,
// diagonal, Viterbi score and alignment exactly as in sameHits, the Forward
// score inside forwardTolerance and the E-value derived from it within 1e-8
// relative.
func sameHitsAsReference(opt, ref []Hit) bool { return compareHits(opt, ref, true) }

// SameHitsAsReference lets forward_suite_test.go (package hmmer_test, which
// may import msa for the suite's databases where this package may not)
// apply the same contract.
var SameHitsAsReference = sameHitsAsReference

func compareHits(a, b []Hit, forwardByTolerance bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TargetID != b[i].TargetID || a[i].Diagonal != b[i].Diagonal ||
			math.Float64bits(a[i].ViterbiScore) != math.Float64bits(b[i].ViterbiScore) ||
			!reflect.DeepEqual(a[i].Alignment, b[i].Alignment) {
			return false
		}
		if forwardByTolerance {
			if !forwardClose(a[i].ForwardScore, b[i].ForwardScore) ||
				math.Abs(a[i].EValue-b[i].EValue) > 1e-8*b[i].EValue {
				return false
			}
		} else if math.Float64bits(a[i].ForwardScore) != math.Float64bits(b[i].ForwardScore) ||
			math.Float64bits(a[i].EValue) != math.Float64bits(b[i].EValue) {
			return false
		}
	}
	return true
}

// TestPruningPreservesScanResults runs full database scans through the
// product cascade (pruning armed, tracebacks after the dedup) and through
// referenceScanRecords (the oracle kernels, no pruning, every Forward
// survivor traced at once) and requires identical hit lists — the pruning
// floors are provably conservative and a traceback does not depend on when
// it runs, so no reported field may move (the Forward-derived floats by more
// than the kernel's stated tolerance).
func TestPruningPreservesScanResults(t *testing.T) {
	cases := []struct {
		name string
		mt   seq.MoleculeType
	}{
		{"protein-seeded", seq.Protein},
		{"rna-windowed", seq.RNA},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := seq.NewGenerator(rng.New(41))
			query := g.Random("query", tc.mt, 120)
			db := makeDB(t, seqdb.Spec{
				Name: "eq", Type: tc.mt, NumSeqs: 80, MeanLen: 150,
				Homologs: []*seq.Sequence{query}, HomologsPerQuery: 6, Seed: 42,
			})
			p, err := BuildFromQuery(query)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := ScanRecords(p, query, &SliceSource{Seqs: db.Seqs}, db.TotalResidues(), SearchOptions{}, metering.Nop{})
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceScanRecords(p, query, &SliceSource{Seqs: db.Seqs}, db.TotalResidues())
			if !sameHitsAsReference(opt.Hits, ref.Hits) {
				t.Fatalf("hit lists diverge:\nopt=%+v\nref=%+v", opt.Hits, ref.Hits)
			}
			if opt.Candidates != ref.Candidates || opt.Scanned != ref.Scanned {
				t.Fatalf("scan stats diverge: opt cand=%d scanned=%d, ref cand=%d scanned=%d",
					opt.Candidates, opt.Scanned, ref.Candidates, ref.Scanned)
			}
			// CellsPruned is exactly the band cells skipped, so executed +
			// pruned must equal the reference's full DP volume.
			if opt.CellsDP+opt.CellsPruned != ref.CellsDP {
				t.Errorf("cell accounting: opt %d + pruned %d != ref %d",
					opt.CellsDP, opt.CellsPruned, ref.CellsDP)
			}
		})
	}
}

// TestScanDeterministicAcrossWorkerCounts shards the database as msa's
// scanParallel does and requires the merged result to be identical to the
// single-shard scan at every worker count — pooled workspaces must not leak
// state between shards.
func TestScanDeterministicAcrossWorkerCounts(t *testing.T) {
	g := seq.NewGenerator(rng.New(43))
	query := g.Random("query", seq.Protein, 140)
	db := makeDB(t, seqdb.Spec{
		Name: "det", Type: seq.Protein, NumSeqs: 90, MeanLen: 140,
		Homologs: []*seq.Sequence{query}, HomologsPerQuery: 8, Seed: 44,
	})
	p, err := BuildFromQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	single, err := ScanRecords(p, query, &SliceSource{Seqs: db.Seqs}, db.TotalResidues(), SearchOptions{}, metering.Nop{})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Hits) == 0 {
		t.Fatal("scan found no hits; determinism test is vacuous")
	}
	for _, workers := range []int{1, 2, 3, 7} {
		parts := make([]*Result, workers)
		per := (len(db.Seqs) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * per
			hi := lo + per
			if hi > len(db.Seqs) {
				hi = len(db.Seqs)
			}
			if lo >= hi {
				continue
			}
			parts[w], err = ScanRecords(p, query, &SliceSource{Seqs: db.Seqs[lo:hi]}, db.TotalResidues(), SearchOptions{}, metering.Nop{})
			if err != nil {
				t.Fatal(err)
			}
		}
		merged := MergeResults(query.ID, parts)
		if !sameHits(merged.Hits, single.Hits) {
			t.Fatalf("workers=%d: merged hits diverge from single-shard scan", workers)
		}
		if merged.CellsDP != single.CellsDP || merged.CellsPruned != single.CellsPruned {
			t.Fatalf("workers=%d: cell counts diverge: %d/%d vs %d/%d",
				workers, merged.CellsDP, merged.CellsPruned, single.CellsDP, single.CellsPruned)
		}
	}
}

// TestHitsPointAtSourceRecords is the record contract from the scan's side:
// the buffering layer meters a record and hands the source's own pointer on,
// so every Hit.Target is one of the database's sequences — no copy per
// record, none per hit — and a scan with hits leaves the database's bytes as
// they were (RecordSource: a returned record stays valid and unmodified).
func TestHitsPointAtSourceRecords(t *testing.T) {
	dbSum := func(db *seqdb.DB) uint64 {
		h := fnv.New64a()
		for _, s := range db.Seqs {
			h.Write([]byte(s.ID))
			h.Write([]byte{0, byte(s.Type)})
			h.Write(s.Residues)
		}
		return h.Sum64()
	}
	for _, mt := range []seq.MoleculeType{seq.Protein, seq.RNA} {
		query, db := repeatRichScan(t, mt) // RNA: windowed targets among the hits
		before := dbSum(db)
		res, err := ScanRecords(BuildMust(t, query), query, &SliceSource{Seqs: db.Seqs}, db.TotalResidues(), SearchOptions{}, metering.Nop{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Hits) == 0 {
			t.Fatalf("%v: no hits; the test is vacuous", mt)
		}
		own := make(map[*seq.Sequence]bool, len(db.Seqs))
		for _, s := range db.Seqs {
			own[s] = true
		}
		for _, h := range res.Hits {
			if !own[h.Target] {
				t.Errorf("%v: hit %s holds a copy of its target, want the database's own record", mt, h.TargetID)
			}
			if h.TargetID != h.Target.ID {
				t.Errorf("%v: hit %s points at record %s", mt, h.TargetID, h.Target.ID)
			}
		}
		if after := dbSum(db); after != before {
			t.Errorf("%v: the scan changed the database: FNV %016x -> %016x", mt, before, after)
		}
	}
}

func BuildMust(t *testing.T, q *seq.Sequence) *Profile {
	t.Helper()
	p, err := BuildFromQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
