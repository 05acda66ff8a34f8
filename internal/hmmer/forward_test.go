package hmmer

import (
	"math"
	"runtime"
	"testing"

	"afsysbench/internal/metering"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
	"afsysbench/internal/seqdb"
)

// Tests for what the scaled odds-space Forward kernel (forward.go) adds over
// its log-space oracle (referenceForward): the power-of-two rescaling in
// both directions, the band/profile clipping it does once per row, and the
// derived tables it reads. The contract everywhere is forwardTolerance.

// referenceRowSums is referenceForward's recurrence returning, per target
// row, the log of the row's cell sum (-Inf for a row outside the profile):
// what the kernel's row scale has to follow.
func referenceRowSums(p *Profile, target *seq.Sequence, diagonal, halfWidth int) []float64 {
	w := 2*halfWidth + 1
	prev, cur := make([]float64, w), make([]float64, w)
	for i := range prev {
		prev[i] = math.Inf(-1)
	}
	sums := make([]float64, target.Len())
	for i := range sums {
		r := int(target.Residues[i])
		lo := i + diagonal - halfWidth
		sums[i] = math.Inf(-1)
		for b := 0; b < w; b++ {
			j := lo + b
			if j < 0 || j >= p.M {
				cur[b] = math.Inf(-1)
				continue
			}
			up, left := math.Inf(-1), math.Inf(-1)
			if b+1 < w {
				up = prev[b+1] + float64(p.Open)
			}
			if b > 0 {
				left = cur[b-1] + float64(p.Open)
			}
			cur[b] = logSumExp4(prev[b], up, left, 0) + float64(p.Match[j*p.K+r])
			sums[i] = logSumExp2(sums[i], cur[b])
		}
		prev, cur = cur, prev
	}
	return sums
}

// scaleCrossings replays forward's scaling rule over the oracle's row sums
// and counts the rescales it forces in each direction: down when a row has
// outgrown 2^fwdScaleBits at the current scale, up when it has decayed
// below 2^-fwdScaleBits. startLost reports whether the scale ever passed
// float64's exponent range, so that the start term 2^-rowExp was exactly 0,
// and startBack whether it later came back into range — both with a margin,
// since the kernel's integer exponent may cross a row before or after this
// replay's fractional one.
func scaleCrossings(rowSums []float64) (down, up int, startLost, startBack bool) {
	const margin = 32
	rowExp := 0.0
	for _, s := range rowSums {
		if math.IsInf(s, -1) {
			continue
		}
		switch bits := s/math.Ln2 - rowExp; {
		case bits > fwdScaleBits:
			down++
			rowExp += bits
		case bits < -fwdScaleBits:
			up++
			rowExp += bits
		}
		if rowExp > 1074+margin {
			startLost = true
		} else if startLost && rowExp < 1022-margin {
			startBack = true
		}
	}
	return down, up, startLost, startBack
}

func concat(mt seq.MoleculeType, parts ...*seq.Sequence) *seq.Sequence {
	out := &seq.Sequence{ID: "stress", Type: mt}
	for _, p := range parts {
		out.Residues = append(out.Residues, p.Residues...)
	}
	return out
}

// junkPair returns n-residue homopolymers of the substitution matrix's
// worst-scoring residue pair: put at the same place in query and target,
// every band cell between them is a mismatch, so whatever paths enter the
// stretch decay by a fixed factor per row on both alphabets (random
// nucleotide junk does not decay at all in a 19-wide band).
func junkPair(mt seq.MoleculeType, n int) (q, t *seq.Sequence) {
	mat := MatrixFor(mt)
	worst := 0
	for i, s := range mat.Scores {
		if s < mat.Scores[worst] {
			worst = i
		}
	}
	fill := func(r int) *seq.Sequence {
		s := &seq.Sequence{Type: mt, Residues: make([]byte, n)}
		for i := range s.Residues {
			s.Residues[i] = byte(r)
		}
		return s
	}
	return fill(worst / mat.N), fill(worst % mat.N)
}

// TestForwardStressMatchesReference drives the kernel through every scaling
// regime on 3 000-residue inputs of both alphabets and holds it to the
// log-space oracle. Each case names the rescale directions it is there for,
// and the test checks on the oracle's own row sums that the input really
// forces them — a case that stopped crossing a threshold would otherwise
// keep passing while testing nothing.
func TestForwardStressMatchesReference(t *testing.T) {
	type stress struct {
		name             string
		build            func(t *testing.T, g *seq.Generator, mt seq.MoleculeType) (*Profile, *seq.Sequence)
		down, up, regain bool
	}
	cases := []stress{
		{name: "self-hit", down: true,
			build: func(t *testing.T, g *seq.Generator, mt seq.MoleculeType) (*Profile, *seq.Sequence) {
				q := g.Random("q", mt, 3000)
				return BuildMust(t, q), q
			}},
		{name: "two domains split by 1500 junk", down: true, up: true,
			build: func(t *testing.T, g *seq.Generator, mt seq.MoleculeType) (*Profile, *seq.Sequence) {
				a, b := g.Random("a", mt, 500), g.Random("b", mt, 1000)
				jq, jt := junkPair(mt, 1500)
				return BuildMust(t, concat(mt, a, jq, b)), concat(mt, a, jt, b)
			}},
		// The short domain is long enough (360 residues, > 1 500 bits on
		// both alphabets) that the start term underflows to exactly 0, and
		// the junk long enough that its paths decay to nothing: the long
		// domain is found only if fresh starts have reappeared by then.
		{name: "short domain, 2180 junk, long domain", down: true, up: true, regain: true,
			build: func(t *testing.T, g *seq.Generator, mt seq.MoleculeType) (*Profile, *seq.Sequence) {
				a, b := g.Random("a", mt, 360), g.Random("b", mt, 460)
				jq, jt := junkPair(mt, 2180)
				return BuildMust(t, concat(mt, a, jq, b)), concat(mt, a, jt, b)
			}},
		{name: "strong domain, 1500 junk tail", down: true, up: true,
			build: func(t *testing.T, g *seq.Generator, mt seq.MoleculeType) (*Profile, *seq.Sequence) {
				a := g.Random("a", mt, 1500)
				jq, jt := junkPair(mt, 1500)
				return BuildMust(t, concat(mt, a, jq)), concat(mt, a, jt)
			}},
		{name: "400-row alignment profile against its own query", down: true,
			build: func(t *testing.T, g *seq.Generator, mt seq.MoleculeType) (*Profile, *seq.Sequence) {
				q := g.Random("q", mt, 3000)
				rows := [][]byte{q.Residues}
				for len(rows) < 400 {
					rows = append(rows, g.Mutate(q, "m", 0.25).Residues)
				}
				p, err := BuildFromAlignment("ali", mt, rows)
				if err != nil {
					t.Fatal(err)
				}
				return p, q
			}},
		{name: "random against random",
			build: func(t *testing.T, g *seq.Generator, mt seq.MoleculeType) (*Profile, *seq.Sequence) {
				return BuildMust(t, g.Random("q", mt, 3000)), g.Random("t", mt, 3000)
			}},
	}
	ws := takeScanWorkspace()
	defer releaseScanWorkspace(ws)
	for _, mt := range []seq.MoleculeType{seq.Protein, seq.RNA} {
		for _, tc := range cases {
			t.Run(mt.String()+"/"+tc.name, func(t *testing.T) {
				p, target := tc.build(t, seq.NewGenerator(rng.New(71)), mt)
				down, up, lost, back := scaleCrossings(referenceRowSums(p, target, 0, BandHalfWidth))
				if tc.down && down == 0 || tc.up && up == 0 || tc.regain && !(lost && back) {
					t.Fatalf("input does not force the rescales the case is for: down=%d up=%d start lost=%v regained=%v",
						down, up, lost, back)
				}
				var worst, worstRef float64
				for _, d := range []int{0, 4, -4} {
					ref := referenceForward(p, target, d, BandHalfWidth, metering.Nop{})
					got := forward(p, target, d, BandHalfWidth, ws, metering.Nop{})
					if !forwardClose(got, ref) {
						t.Errorf("diagonal %d: forward %v, reference %v, |Δ| %.3g > %.3g", d, got, ref, math.Abs(got-ref), forwardTolerance(ref))
					}
					if gap := math.Abs(got - ref); gap >= worst {
						worst, worstRef = gap, ref
					}
					if d == 0 && tc.down && ref <= 709 {
						t.Errorf("score %v would not overflow exp(): the case needs no scaling", ref)
					}
				}
				t.Logf("rescales down=%d up=%d; worst |Δ| %.3g at score %.6f (tolerance %.3g)",
					down, up, worst, worstRef, forwardTolerance(worstRef))
			})
		}
	}
}

// TestForwardBandEdges covers the clipping the kernel does once per row
// where the reference tests every cell: the band entering and leaving the
// profile at either end, a profile narrower than the band, a one-cell band,
// an empty target and a band that never meets the profile — score within
// tolerance and the metered event (in-profile cells) identical.
func TestForwardBandEdges(t *testing.T) {
	cases := []struct {
		name                 string
		m, l, diag, halfWide int
	}{
		{"enters left, leaves right", 30, 80, -20, BandHalfWidth},
		{"starts inside, leaves right", 30, 80, 25, BandHalfWidth},
		{"target ends inside", 90, 30, -5, BandHalfWidth},
		{"clipped both sides at once", 7, 40, -10, BandHalfWidth},
		{"one-cell band", 40, 60, 0, 0},
		{"one-cell band off the diagonal", 40, 60, -13, 0},
		{"narrow band", 40, 60, 3, 1},
		{"empty target", 40, 0, 0, BandHalfWidth},
		{"band right of the profile", 40, 60, 500, 3},
		{"band left of the profile", 40, 60, -500, 3},
		{"touches the last column only", 40, 10, 39 + BandHalfWidth, BandHalfWidth},
		{"touches the first column only", 40, 30, -(29 + BandHalfWidth), BandHalfWidth},
	}
	ws := takeScanWorkspace()
	defer releaseScanWorkspace(ws)
	for _, mt := range []seq.MoleculeType{seq.Protein, seq.RNA} {
		g := seq.NewGenerator(rng.New(73))
		for _, tc := range cases {
			p := BuildMust(t, g.Random("q", mt, tc.m))
			target := g.Random("t", mt, tc.l)
			var refM, optM metering.Log
			ref := referenceForward(p, target, tc.diag, tc.halfWide, &refM)
			got := forward(p, target, tc.diag, tc.halfWide, ws, &optM)
			if !forwardClose(got, ref) {
				t.Errorf("%v %s: forward %v, reference %v", mt, tc.name, got, ref)
			}
			if len(refM) != 1 || len(optM) != 1 || refM[0] != optM[0] {
				t.Errorf("%v %s: metered events diverge:\nref %+v\nopt %+v", mt, tc.name, refM, optM)
			}
		}
	}
}

// TestForwardHandFilledMatchTUsesReference: MatchT is an exported field, so
// a caller can fill it without BuildTransposed. The odds table and the
// pruning bound are then missing; the public kernels must notice, run on a
// private copy with every derived table built — scores bit-equal to the
// constructor-built profile's — and leave the caller's slices alone.
func TestForwardHandFilledMatchTUsesReference(t *testing.T) {
	g := seq.NewGenerator(rng.New(79))
	built := BuildMust(t, g.Random("q", seq.Protein, 60))
	hand := &Profile{
		Name: built.Name, Type: built.Type, M: built.M, K: built.K,
		Match:         append([]float32(nil), built.Match...),
		MatchT:        make([]float32, len(built.MatchT)), // right size, wrong (zero) contents
		InsertPenalty: built.InsertPenalty, Open: built.Open, Extend: built.Extend,
		Lambda: built.Lambda, Mu: built.Mu,
	}
	if hand.transposed() {
		t.Fatal("hand-filled MatchT counts as the derived tables")
	}
	target := g.Mutate(g.Random("t", seq.Protein, 90), "t", 0.1)
	if got, want := Forward(hand, target, 0, BandHalfWidth, nil), Forward(built, target, 0, BandHalfWidth, nil); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Forward on a hand-filled profile = %v, want the built profile's %v bit for bit", got, want)
	}
	if BandedViterbi(hand, target, 0, BandHalfWidth, nil) != BandedViterbi(built, target, 0, BandHalfWidth, nil) {
		t.Error("banded Viterbi diverges on a hand-filled profile")
	}
	for i, v := range hand.MatchT {
		if v != 0 {
			t.Fatalf("a public kernel wrote MatchT[%d] = %v in the caller's slice", i, v)
		}
	}
	if hand.oddsT != nil {
		t.Error("a public kernel attached an odds table to the caller's profile")
	}
}

// TestBuildTransposedRebuildsForwardOdds: BuildTransposed is how a caller
// that edits Match (or Open) brings the derived tables back in step, so a
// second call must rebuild the odds, in the storage of the first.
func TestBuildTransposedRebuildsForwardOdds(t *testing.T) {
	g := seq.NewGenerator(rng.New(83))
	q := g.Random("q", seq.Protein, 80)
	p := BuildMust(t, q)
	target := g.Mutate(q, "t", 0.2)
	before := Forward(p, target, 0, BandHalfWidth, nil)
	table := &p.oddsT[0]

	for i := range p.Match {
		if i%3 == 0 {
			p.Match[i] += 1.5
		}
	}
	p.Open = -4
	p.BuildTransposed()

	if &p.oddsT[0] != table {
		t.Error("BuildTransposed reallocated an odds table of unchanged size")
	}
	if p.openOdds != math.Exp(float64(p.Open)) {
		t.Errorf("openOdds = %v after Open changed to %v", p.openOdds, p.Open)
	}
	for col := 0; col < p.M; col++ {
		for r := 0; r < p.K; r++ {
			if got, want := p.oddsT[r*p.M+col], math.Exp(float64(p.Match[col*p.K+r])); got != want {
				t.Fatalf("oddsT[%d,%d] = %v, want exp(Match) = %v", r, col, got, want)
			}
		}
	}
	after := Forward(p, target, 0, BandHalfWidth, nil)
	ref := referenceForward(p, target, 0, BandHalfWidth, metering.Nop{})
	if !forwardClose(after, ref) {
		t.Errorf("after the rebuild forward %v, reference %v", after, ref)
	}
	if forwardClose(after, before) {
		t.Errorf("score did not move with the profile (%v): the test is vacuous", after)
	}
}

// TestScanMeteringMatchesParent pins the metered events of one ScanRecords
// per alphabet to the totals recorded at the commit before Forward moved to
// odds space. The forward_band event models hmmsearch's Forward on the
// paper's machines (30 instructions and 40 bytes per in-profile cell), not
// the Go loop, so making the loop cheaper must leave every one of these —
// and with them every modeled second and golden — where it was. The last
// column is the scan's Result.CellsPruned, which the band_prune event
// carried as its pruned count while events had one. The buffering layer's
// three functions are no longer the scan's to record: their rows are
// ReaderEvents over the records the scan took (readerSource), and the scan
// itself must record none of them.
func TestScanMeteringMatchesParent(t *testing.T) {
	type totals struct{ instructions, bytes, branches, workingSet, allocated, pruned uint64 }
	want := map[seq.MoleculeType]map[string]totals{
		seq.Protein: {
			"addbuf":       {173124, 28854, 861, 262144, 14427, 0},
			"band_prune":   {18754, 18660, 4665, 456, 0, 204},
			"calc_band_10": {393740, 1574960, 113490, 38904, 0, 0},
			"calc_band_9":  {394090, 1576360, 113590, 38904, 0, 0},
			"copy_to_iter": {7199, 28854, 179, 0, 0, 0},
			"forward_band": {417000, 556000, 27800, 9904, 0, 0},
			"seebuf":       {57708, 14427, 14427, 262144, 0, 0},
			"seed_filter":  {91050, 182100, 29415, 2826, 0, 0},
		},
		seq.RNA: {
			"addbuf":       {173124, 28854, 861, 262144, 14427, 0},
			"band_prune":   {180, 176, 44, 456, 0, 38},
			"calc_band_10": {927470, 3709880, 268868, 32058, 0, 0},
			"calc_band_9":  {927795, 3711180, 268963, 32058, 0, 0},
			"copy_to_iter": {7199, 28854, 179, 0, 0, 0},
			"forward_band": {1989420, 2652560, 132628, 2224, 0, 0},
			"seebuf":       {57708, 14427, 14427, 262144, 0, 0},
			"seed_filter":  {88658, 177316, 29116, 2762, 0, 0},
		},
	}
	for _, mt := range []seq.MoleculeType{seq.Protein, seq.RNA} {
		g := seq.NewGenerator(rng.New(41))
		query := g.Random("query", mt, 120)
		db := makeDB(t, seqdb.Spec{
			Name: "eq", Type: mt, NumSeqs: 80, MeanLen: 150,
			Homologs: []*seq.Sequence{query}, HomologsPerQuery: 6, Seed: 42,
		})
		var events metering.Log
		src := readerSource{&SliceSource{Seqs: db.Seqs}, &events}
		res, err := ScanRecords(BuildMust(t, query), query, src, db.TotalResidues(), SearchOptions{}, &events)
		if err != nil {
			t.Fatal(err)
		}
		reader := 0
		for _, ev := range events {
			if isReaderFunc(ev.Func) {
				reader++
			}
		}
		if reader != 3*len(db.Seqs) {
			t.Errorf("%v: %d buffering-layer events over %d records: the scan itself recorded some", mt, reader, len(db.Seqs))
		}
		got := map[string]totals{}
		for _, ev := range events {
			g := got[ev.Func.String()]
			g.instructions += ev.Instructions
			g.bytes += ev.Bytes
			g.branches += ev.Branches
			g.workingSet = max(g.workingSet, ev.WorkingSet)
			g.allocated += ev.Allocated
			got[ev.Func.String()] = g
		}
		if g, ok := got[metering.BandPrune.String()]; ok {
			g.pruned = res.CellsPruned
			got[metering.BandPrune.String()] = g
		}
		if len(got) != len(want[mt]) {
			t.Errorf("%v: %d metered functions, want %d", mt, len(got), len(want[mt]))
		}
		for fn, w := range want[mt] {
			if got[fn] != w {
				t.Errorf("%v %s: metered %+v, want the parent's %+v", mt, fn, got[fn], w)
			}
		}
		if t.Failed() {
			t.Logf("%v got: %#v", mt, got)
		}
	}
}

// TestScanReusesRecordBuffer pins what a warm scan may still allocate. A
// scan reads the source's records in place, the workspace is pooled and
// the seed tables of an unchanged query stand, so what is left is the
// scan's own state — source, scan state, Result. A no-hit database keeps the legitimate per-hit
// allocations (hit list, traceback) out of the count.
func TestScanReusesRecordBuffer(t *testing.T) {
	g := seq.NewGenerator(rng.New(89))
	query := g.Random("query", seq.Protein, 150)
	db := makeDB(t, seqdb.Spec{Name: "nohit", Type: seq.Protein, NumSeqs: 32, MeanLen: 200, Seed: 90})
	p := BuildMust(t, query)
	scan := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := ScanRecords(p, query, &SliceSource{Seqs: db.Seqs}, db.TotalResidues(), SearchOptions{}, metering.Nop{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Hits) != 0 {
			t.Fatalf("random DB produced %d hits; pick another seed", len(res.Hits))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	scan() // warm-up: grows the pooled workspace
	// The pool may be emptied by a collection between two scans; one clean
	// repeat out of a few is what the contract promises.
	least := uint64(math.MaxUint64)
	for i := 0; i < 5 && least >= 1<<10; i++ {
		least = min(least, scan())
	}
	if least >= 1<<10 {
		t.Errorf("a warm scan allocates %d bytes, want < 1 KiB (a record copy, or the 32 KiB seed table, per scan is what this guards)", least)
	}
}
