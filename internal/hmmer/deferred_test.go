package hmmer

import (
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"afsysbench/internal/metering"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
	"afsysbench/internal/seqdb"
)

// repeatRichScan builds, per alphabet, the scan input on which the order of
// work matters most: several bands of one target clear the Forward gate, so
// the scan traces (or charges for) alignments its dedup then drops. Protein:
// a poly-Q query against a database that is 30 % low-complexity records plus
// planted homologs. RNA: planted homologs plus three 3 000-residue targets,
// each carrying two copies of a homolog in different windows of the
// long-target path, both at a window offset other than 0.
func repeatRichScan(t *testing.T, mt seq.MoleculeType) (*seq.Sequence, *seqdb.DB) {
	t.Helper()
	g := seq.NewGenerator(rng.New(97))
	if mt == seq.Protein {
		query := g.WithRepeat("pq", seq.Protein, 300, 90, seq.QIndex)
		return query, makeDB(t, seqdb.Spec{
			Name: "lc", Type: seq.Protein, NumSeqs: 60, MeanLen: 150, LowComplexFrac: 0.3,
			Homologs: []*seq.Sequence{query}, HomologsPerQuery: 4, Seed: 98,
		})
	}
	query := g.Random("rna", mt, 150)
	db := makeDB(t, seqdb.Spec{
		Name: "long", Type: mt, NumSeqs: 30, MeanLen: 400, LowComplexFrac: 0.2,
		Homologs: []*seq.Sequence{query}, HomologsPerQuery: 4, Seed: 99,
	})
	for i, rate := range []float64{0.05, 0.1, 0.15} {
		long := g.Random("long|chr"+strconv.Itoa(i), mt, 3000)
		copy(long.Residues[1300:], g.Mutate(query, "h", rate).Residues)
		copy(long.Residues[2400+7*i:], g.Mutate(query, "h", rate+0.05).Residues)
		db.Seqs = append(db.Seqs, long)
	}
	return query, db
}

// isTracebackEvent tells the traceback's calc_band events (17 instructions
// and 5 branches per cell) from the scoring pass's (14 and 4).
func isTracebackEvent(ev metering.Event) bool {
	return (ev.Func == "calc_band_9" || ev.Func == "calc_band_10") && ev.Branches*17 == ev.Instructions*5
}

// TestScanEventStreamMatchesParent pins the event *stream* of one
// ScanRecords per alphabet — every field of every event, in order — to the
// value computed at the commit before tracebacks moved behind the scan's
// dedup. TestScanMeteringMatchesParent pins per-function sums; the machine
// models fold events in order and chain deltas are gob-encoded in order, so
// a change that keeps the totals and moves an event still moves modeled
// seconds and cached bytes. The inputs are the ones where the Go loop now
// does its work at a different point than the model is charged for it.
func TestScanEventStreamMatchesParent(t *testing.T) {
	want := map[seq.MoleculeType]uint64{
		seq.Protein: 0xae1bcaa8b18a12fa,
		seq.RNA:     0xeb42948109485d5f,
	}
	for _, mt := range []seq.MoleculeType{seq.Protein, seq.RNA} {
		query, db := repeatRichScan(t, mt)
		var acc metering.Accumulator
		res, err := ScanRecords(BuildMust(t, query), query, &SliceSource{Seqs: db.Seqs}, db.TotalResidues(), SearchOptions{}, &acc)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		word := func(v uint64) {
			var b [8]byte
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
		traced := 0
		for _, ev := range acc.Events {
			h.Write([]byte(ev.Func))
			for _, v := range []uint64{
				ev.Instructions, ev.Bytes, ev.WorkingSet, uint64(ev.Pattern), ev.Branches,
				math.Float64bits(ev.BranchMissRate), ev.PageTouches, ev.Allocated, ev.Pruned,
			} {
				word(v)
			}
			if ev.Func == "calc_band_9" && isTracebackEvent(ev) {
				traced++
			}
		}
		if traced <= len(res.Hits) {
			t.Errorf("%v: %d traceback events for %d kept hits: no band was charged and then dropped, so the input does not test the order", mt, traced, len(res.Hits))
		}
		if mt != seq.Protein && res.Windows == 0 {
			t.Errorf("%v: no target took the windowed path", mt)
		}
		t.Logf("%v: %d events, %d tracebacks charged, %d hits kept, %d windows", mt, len(acc.Events), traced, len(res.Hits), res.Windows)
		if got := h.Sum64(); got != want[mt] {
			t.Errorf("%v: event stream of %d events hashes to %#x, want the parent's %#x", mt, len(acc.Events), got, want[mt])
		}
	}
}

// TestDeferredTracebackMatchesEagerOracle: the scan traces an alignment
// after its sort and dedup, for the kept hits only, over the rows up to the
// best cell only, against the target's own residues instead of the view
// the kernels scored. On the inputs where any of that could show, every
// kept hit must carry exactly the alignment the oracle kernel traces at
// once, over every row of the same view and diagonal (referenceScanRecords),
// and the alignment must be a valid path through the whole target.
func TestDeferredTracebackMatchesEagerOracle(t *testing.T) {
	check := func(t *testing.T, query *seq.Sequence, seqs []*seq.Sequence, residues int) []Hit {
		t.Helper()
		p := BuildMust(t, query)
		got, err := ScanRecords(p, query, &SliceSource{Seqs: seqs}, residues, SearchOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceScanRecords(p, query, &SliceSource{Seqs: seqs}, residues)
		if len(got.Hits) == 0 || !sameHitsAsReference(got.Hits, want.Hits) {
			t.Fatalf("hit lists diverge (or are empty):\ndeferred %+v\neager    %+v", got.Hits, want.Hits)
		}
		for _, h := range got.Hits {
			if h.Alignment == nil || len(h.Alignment.Pairs) == 0 {
				t.Fatalf("hit %s has no alignment", h.TargetID)
			}
			if err := h.Alignment.Validate(p.M, h.Target.Len()); err != nil {
				t.Errorf("hit %s: %v", h.TargetID, err)
			}
		}
		return got.Hits
	}

	t.Run("poly-Q query, low-complexity database", func(t *testing.T) {
		query, db := repeatRichScan(t, seq.Protein)
		check(t, query, db.Seqs, db.TotalResidues())
	})

	t.Run("kept hit in a window with offset != 0", func(t *testing.T) {
		query, db := repeatRichScan(t, seq.RNA)
		windowed := 0
		for _, h := range check(t, query, db.Seqs, db.TotalResidues()) {
			// A path that starts beyond the first window's end was scored
			// in a later window.
			if first := h.Alignment.Pairs[0]; first.Pos >= planWindows(query.Len(), h.Target.Len()).winLen {
				windowed++
			}
		}
		if windowed == 0 {
			t.Error("no kept hit lies in a window with a non-zero offset")
		}
	})

	t.Run("best cell in the target's last row", func(t *testing.T) {
		g := seq.NewGenerator(rng.New(101))
		query := g.Random("q", seq.Protein, 160)
		db := makeDB(t, seqdb.Spec{Name: "cut", Type: seq.Protein, NumSeqs: 20, MeanLen: 120, Seed: 102})
		// A homolog cut off mid-alignment, its last residues identical to
		// the query's: the score is still rising when the target ends.
		cut := g.Mutate(query, "cut|hom", 0.1)
		cut.Residues = cut.Residues[:90]
		copy(cut.Residues[80:], query.Residues[80:90])
		seqs := append(db.Seqs, cut)
		for _, h := range check(t, query, seqs, db.TotalResidues()+cut.Len()) {
			if h.TargetID != cut.ID {
				continue
			}
			if last := h.Alignment.Pairs[len(h.Alignment.Pairs)-1]; last.Pos != cut.Len()-1 {
				t.Errorf("truncated homolog's path ends at position %d, want the last row %d", last.Pos, cut.Len()-1)
			}
			return
		}
		t.Error("truncated homolog not reported")
	})

	// The geometry a scan does not reach with a reportable hit, on the
	// kernel alone: the traceback over rows 0…EndRow against the oracle's
	// over every row.
	ws := takeScanWorkspace()
	defer releaseScanWorkspace(ws)
	cutTrace := func(t *testing.T, p *Profile, target *seq.Sequence, d int) (AlignResult, *Alignment) {
		t.Helper()
		ref, refPath := referenceBandedViterbiAlign(p, target, d, BandHalfWidth, metering.Nop{})
		_, path := traceBand(p, target.Residues, d, BandHalfWidth, ref.EndRow+1, ws)
		if !reflect.DeepEqual(path, refPath) {
			t.Fatalf("diagonal %d: traced over rows 0…%d %+v, the oracle over all %d rows %+v", d, ref.EndRow, path, target.Len(), refPath)
		}
		if err := path.Validate(p.M, target.Len()); err != nil {
			t.Error(err)
		}
		return ref, path
	}

	t.Run("best cell in row 0", func(t *testing.T) {
		// One identical pair at (row 0, column 0), every other band cell
		// the alphabet's worst mismatch.
		jq, jt := junkPair(seq.Protein, 40)
		jq.Residues[0], jt.Residues[0] = seq.QIndex, seq.QIndex
		res, path := cutTrace(t, BuildMust(t, jq), jt, 0)
		if res.EndRow != 0 || len(path.Pairs) != 1 {
			t.Errorf("best cell in row %d with a %d-step path, want row 0 and one step", res.EndRow, len(path.Pairs))
		}
	})

	t.Run("band enters late, leaves early", func(t *testing.T) {
		g := seq.NewGenerator(rng.New(103))
		query := g.Random("q", seq.Protein, 120)
		p := BuildMust(t, query)
		hom := g.Mutate(query, "hom", 0.1)
		// 50 residues of junk, then the homolog's first 60: the band around
		// diagonal -50 reaches column 0 at row 41.
		late := concat(seq.Protein, g.Random("junk", seq.Protein, 50), &seq.Sequence{Residues: hom.Residues[:60]})
		if res, _ := cutTrace(t, p, late, -50); res.EndRow < 80 {
			t.Errorf("late band: best cell in row %d, want it deep in the homolog", res.EndRow)
		}
		// The homolog's last 40, then 80 of junk: the band around diagonal
		// 80 passes column 119 at row 49.
		early := concat(seq.Protein, &seq.Sequence{Residues: hom.Residues[80:]}, g.Random("junk", seq.Protein, 80))
		if res, _ := cutTrace(t, p, early, 80); res.EndRow < 25 || res.EndRow > 48 {
			t.Errorf("early band: best cell in row %d, want it inside the homolog's 40 rows", res.EndRow)
		}
		// And bands that meet the profile in a corner only, or not at all.
		for _, d := range []int{-(late.Len() - 3), p.M + BandHalfWidth - 2, -500, 500} {
			cutTrace(t, p, late, d)
		}
	})
}

// TestHitSize: scanDB keeps what a hit's deferred traceback needs in a
// scan-private record and not in Hit, because cached hits are copied per
// request: 32 more bytes here read +1.8 % alloc_mb_per_op on the repo
// benchmark's hot_cache workload and +2.0 % on tenant_storm (bound 6 %),
// and +8.6 % core.msa_phase_hit_alloc_mb — none of which run a search.
func TestHitSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the figure is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Hit{}); got != 72 {
		t.Errorf("hmmer.Hit is %d bytes, want 72", got)
	}
}
