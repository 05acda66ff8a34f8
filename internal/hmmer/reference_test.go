package hmmer

import (
	"context"
	"math"
	"sort"

	"afsysbench/internal/metering"
	"afsysbench/internal/seq"
)

// Reference kernels: the column-major (Match[col*K+residue]) scan path with
// per-call scratch allocation and a test per cell. These are the kernels the
// product ones replaced, kept as test code for two jobs:
//
//   - correctness oracle — the equivalence tests assert the product Viterbi
//     kernels (one branch-free row function under three drivers, a traceback
//     that stores no pointers and runs after the scan's dedup) reproduce
//     these bitwise, and hold the odds-space Forward kernel, a different
//     algorithm, to a stated tolerance against the log-space definition kept
//     here; referenceScanRecords is the same for a whole scan;
//   - baseline — BenchmarkScan* measures the product cascade against these
//     on identical inputs.
//
// They intentionally preserve the original allocation behavior (fresh DP
// rows per call) so the benchmark comparison reflects the real before/after
// cost, not just the layout change. No product code can reach them.

// dpRows holds the three-state DP rows for a band of width w.
type dpRows struct {
	m, ins, del []float32
}

func newDPRows(w int) *dpRows {
	return &dpRows{
		m:   make([]float32, w),
		ins: make([]float32, w),
		del: make([]float32, w),
	}
}

func (d *dpRows) reset() {
	for i := range d.m {
		d.m[i] = negInf
		d.ins[i] = negInf
		d.del[i] = negInf
	}
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

// referenceBandedViterbi is the pre-optimization banded kernel: DP rows
// allocated per call, column-major emission lookups, no early exit.
func referenceBandedViterbi(p *Profile, target *seq.Sequence, diagonal, halfWidth int, m metering.Meter) AlignResult {
	L := target.Len()
	w := 2*halfWidth + 1
	prev := newDPRows(w)
	cur := newDPRows(w)
	prev.reset()

	res := AlignResult{Score: 0}
	var cellsEven, cellsOdd uint64

	for i := 0; i < L; i++ {
		r := int(target.Residues[i])
		// Band columns for this row: center = i + diagonal.
		lo := i + diagonal - halfWidth
		cells := referenceCalcBandRow(p, r, i, lo, w, prev, cur, &res)
		if i%2 == 0 {
			cellsEven += cells
		} else {
			cellsOdd += cells
		}
		prev, cur = cur, prev
	}
	res.Cells = cellsEven + cellsOdd

	recordCalcBand(scoreCost, uint64(6*w)*4+p.MemoryBytes()+uint64(L), cellsEven, cellsOdd, m)
	return res
}

// referenceCalcBandRow evaluates one target row of the banded recurrence.
// prev holds row i-1 aligned to its own band window (shifted one column
// left relative to cur's window because the band tracks the diagonal).
func referenceCalcBandRow(p *Profile, r, row, lo, w int, prev, cur *dpRows, res *AlignResult) uint64 {
	var cells uint64
	K := p.K
	for b := 0; b < w; b++ {
		j := lo + b
		if j < 0 || j >= p.M {
			cur.m[b] = negInf
			cur.ins[b] = negInf
			cur.del[b] = negInf
			continue
		}
		cells++
		// prev row's band is centered one column left: prev index for
		// column j-1 is b (same slot), for column j is b+1.
		diagM, diagI, diagD := negInf, negInf, negInf
		if b < w { // column j-1 in previous row = slot b
			diagM, diagI, diagD = prev.m[b], prev.ins[b], prev.del[b]
		}
		upM, upI := negInf, negInf
		if b+1 < w { // column j in previous row = slot b+1
			upM, upI = prev.m[b+1], prev.ins[b+1]
		}
		leftM, leftD := negInf, negInf
		if b > 0 {
			leftM, leftD = cur.m[b-1], cur.del[b-1]
		}

		best := diagM
		if diagI > best {
			best = diagI
		}
		if diagD > best {
			best = diagD
		}
		if best < 0 {
			best = 0 // local alignment restart
		}
		mScore := best + p.Match[j*K+r]
		iScore := maxf(upM+p.Open, upI+p.Extend) + p.InsertPenalty
		dScore := maxf(leftM+p.Open, leftD+p.Extend)

		cur.m[b] = mScore
		cur.ins[b] = iScore
		cur.del[b] = dScore
		if mScore > res.Score {
			res.Score = mScore
			res.EndCol = j
			res.EndRow = row
		}
	}
	return cells
}

// backpointer codes for the reference traceback's pointer matrices.
const (
	ptrNone byte = iota // local start
	ptrM
	ptrI
	ptrD
)

// referenceBandedViterbiAlign is the traceback the product one replaced:
// the recurrence over all L rows with a test per cell, six L×w planes
// (three of scores, three of backpointers written per cell), and a walk
// along the stored pointers. It is the only oracle the product traceback
// has that shares no code with it.
func referenceBandedViterbiAlign(p *Profile, target *seq.Sequence, diagonal, halfWidth int, m metering.Meter) (AlignResult, *Alignment) {
	L := target.Len()
	w := 2*halfWidth + 1
	n := L * w
	mSc, iSc, dSc := make([]float32, n), make([]float32, n), make([]float32, n)
	mPtr, iPtr, dPtr := make([]byte, n), make([]byte, n), make([]byte, n)

	res := AlignResult{Score: 0}
	var cellsEven, cellsOdd uint64
	bestRow, bestBand := -1, -1

	for i := 0; i < L; i++ {
		r := int(target.Residues[i])
		lo := i + diagonal - halfWidth
		row := i * w
		var cells uint64
		for b := 0; b < w; b++ {
			j := lo + b
			if j < 0 || j >= p.M {
				mSc[row+b], iSc[row+b], dSc[row+b] = negInf, negInf, negInf
				continue
			}
			cells++
			// Previous row's band is shifted one column left: column j-1
			// is slot b, column j is slot b+1.
			diagM, diagI, diagD := negInf, negInf, negInf
			if i > 0 {
				diagM, diagI, diagD = mSc[row-w+b], iSc[row-w+b], dSc[row-w+b]
			}
			upM, upI := negInf, negInf
			if i > 0 && b+1 < w {
				upM, upI = mSc[row-w+b+1], iSc[row-w+b+1]
			}
			leftM, leftD := negInf, negInf
			if b > 0 {
				leftM, leftD = mSc[row+b-1], dSc[row+b-1]
			}

			best, ptr := float32(0), ptrNone
			if diagM > best {
				best, ptr = diagM, ptrM
			}
			if diagI > best {
				best, ptr = diagI, ptrI
			}
			if diagD > best {
				best, ptr = diagD, ptrD
			}
			mSc[row+b] = best + p.Match[j*p.K+r]
			mPtr[row+b] = ptr

			if upM+p.Open >= upI+p.Extend {
				iSc[row+b] = upM + p.Open + p.InsertPenalty
				iPtr[row+b] = ptrM
			} else {
				iSc[row+b] = upI + p.Extend + p.InsertPenalty
				iPtr[row+b] = ptrI
			}
			if leftM+p.Open >= leftD+p.Extend {
				dSc[row+b] = leftM + p.Open
				dPtr[row+b] = ptrM
			} else {
				dSc[row+b] = leftD + p.Extend
				dPtr[row+b] = ptrD
			}

			if mSc[row+b] > res.Score {
				res.Score = mSc[row+b]
				res.EndCol = j
				res.EndRow = i
				bestRow, bestBand = i, b
			}
		}
		if i%2 == 0 {
			cellsEven += cells
		} else {
			cellsOdd += cells
		}
	}
	res.Cells = cellsEven + cellsOdd
	recordCalcBand(traceCost, uint64(6*w)*4*uint64(min(L, 64))+p.MemoryBytes()+uint64(L), cellsEven, cellsOdd, m)

	ali := &Alignment{Score: res.Score}
	if bestRow < 0 {
		return res, ali
	}

	// Trace back from the best match cell to its local start.
	var rev []AlignedPair
	i, b := bestRow, bestBand
	state := ptrM
	for i >= 0 {
		lo := i + diagonal - halfWidth
		j := lo + b
		switch state {
		case ptrM:
			rev = append(rev, AlignedPair{Op: OpMatch, Col: j, Pos: i})
			prev := mPtr[i*w+b]
			if prev == ptrNone {
				i = -1 // local start
				break
			}
			state = prev
			// Diagonal move: previous row, same slot (column j-1).
			i--
		case ptrI:
			rev = append(rev, AlignedPair{Op: OpInsert, Col: -1, Pos: i})
			state = iPtr[i*w+b]
			// Vertical move: previous row, column j = slot b+1 there.
			i--
			b++
		case ptrD:
			rev = append(rev, AlignedPair{Op: OpDelete, Col: j, Pos: -1})
			state = dPtr[i*w+b]
			// Horizontal move: same row, slot b-1.
			b--
		}
		if b < 0 || b >= w {
			break // fell off the band edge; path ends here
		}
	}
	// Reverse into ascending order.
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	ali.Pairs = rev
	return res, ali
}

// referenceScanRecords is ScanRecords on the reference kernels, written the
// plain way round: no pruning floor, and every candidate that clears the
// Forward gate traced at once, over the whole view, before the sort and the
// dedup drop most of them. Seeds, window plan, gates and hit order are the
// product's own (none of them is a kernel); metering is not modeled.
func referenceScanRecords(p *Profile, query *seq.Sequence, src RecordSource, dbResidues int) *Result {
	res := &Result{Query: query.ID}
	var idx seedIndex
	idx.build(query, seedK(query.Type))
	cascade := func(view, target *seq.Sequence, offset int) {
		for _, d := range idx.candidates(view, minSeeds(query.Type), maxDiagonals, 2*BandHalfWidth, metering.Nop{}, true) {
			res.Candidates++
			ali := referenceBandedViterbi(p, view, d, BandHalfWidth, metering.Nop{})
			res.CellsDP += ali.Cells
			if p.EValue(float64(ali.Score), dbResidues) > maxEValue*10 {
				continue
			}
			fwd := referenceForward(p, view, d, BandHalfWidth, metering.Nop{})
			fev := p.EValue(fwd, dbResidues)
			if fev > maxEValue {
				continue
			}
			_, traced := referenceBandedViterbiAlign(p, view, d, BandHalfWidth, metering.Nop{})
			for pi := range traced.Pairs {
				if traced.Pairs[pi].Pos >= 0 {
					traced.Pairs[pi].Pos += offset
				}
			}
			res.Hits = append(res.Hits, Hit{
				TargetID: target.ID, Target: target, Diagonal: d + offset,
				ViterbiScore: float64(ali.Score), ForwardScore: fwd, Bits: p.BitScore(fwd), EValue: fev,
				Alignment: traced,
			})
		}
	}
	for {
		target, ok := src.Next()
		if !ok {
			break
		}
		res.Scanned++
		if query.Type == seq.Protein || target.Len() <= longTargetThreshold(query.Len()) {
			cascade(target, target, 0)
			continue
		}
		plan := planWindows(query.Len(), target.Len())
		res.Windows += plan.targets
		for wi := 0; wi < plan.targets; wi++ {
			start := wi * plan.stride
			end := min(start+plan.winLen, target.Len())
			window := &seq.Sequence{ID: target.ID, Type: target.Type, Residues: target.Residues[start:end]}
			cascade(window, target, start)
		}
	}
	// hitOrder's total order: its last key, the window offset, is the order
	// the hits of one target and diagonal were appended in.
	sort.SliceStable(res.Hits, func(i, j int) bool {
		a, b := &res.Hits[i], &res.Hits[j]
		if a.EValue != b.EValue {
			return a.EValue < b.EValue
		}
		if a.TargetID != b.TargetID {
			return a.TargetID < b.TargetID
		}
		return a.Diagonal < b.Diagonal
	})
	seen := map[string]bool{}
	uniq := res.Hits[:0]
	for _, h := range res.Hits {
		if !seen[h.TargetID] {
			seen[h.TargetID] = true
			uniq = append(uniq, h)
		}
	}
	res.Hits = uniq
	return res
}

// ScanRecords is ScanRecordsCtx without cancellation, the form the tests
// scan with.
func ScanRecords(p *Profile, query *seq.Sequence, src RecordSource, dbResidues int, opts SearchOptions, m metering.Meter) (*Result, error) {
	return ScanRecordsCtx(context.Background(), p, query, src, dbResidues, opts, m)
}

// ReferenceScanRecords lets forward_suite_test.go (package hmmer_test) run
// the reference scan on the suite's databases.
var ReferenceScanRecords = referenceScanRecords

// referenceForward is the banded Forward pass as defined in log space:
// log-sum-exp per cell, rows allocated per call, column-major emission
// lookups.
func referenceForward(p *Profile, target *seq.Sequence, diagonal, halfWidth int, m metering.Meter) float64 {
	L := target.Len()
	w := 2*halfWidth + 1
	prev := make([]float64, w)
	cur := make([]float64, w)
	for i := range prev {
		prev[i] = math.Inf(-1)
	}
	total := math.Inf(-1)
	var cells uint64
	for i := 0; i < L; i++ {
		r := int(target.Residues[i])
		lo := i + diagonal - halfWidth
		for b := 0; b < w; b++ {
			j := lo + b
			if j < 0 || j >= p.M {
				cur[b] = math.Inf(-1)
				continue
			}
			cells++
			diag := math.Inf(-1)
			if b < w {
				diag = prev[b]
			}
			up := math.Inf(-1)
			if b+1 < w {
				up = prev[b+1] + float64(p.Open)
			}
			left := math.Inf(-1)
			if b > 0 {
				left = cur[b-1] + float64(p.Open)
			}
			// Local-alignment start: each cell can begin a fresh path.
			sum := logSumExp4(diag, up, left, 0)
			cur[b] = sum + float64(p.Match[j*p.K+r])
			total = logSumExp2(total, cur[b])
		}
		prev, cur = cur, prev
	}
	recordForwardEvent(p, w, cells, m)
	if math.IsInf(total, -1) {
		return 0
	}
	return total
}

func logSumExp2(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(a, -1) {
		return a
	}
	return a + math.Log1p(math.Exp(b-a))
}

func logSumExp4(a, b, c, d float64) float64 {
	return logSumExp2(logSumExp2(a, b), logSumExp2(c, d))
}
