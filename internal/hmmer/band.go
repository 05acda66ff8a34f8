package hmmer

import (
	"afsysbench/internal/metering"
	"afsysbench/internal/seq"
)

// Banded Viterbi alignment.
//
// After the seed filter identifies a promising diagonal, the full
// affine-gap Viterbi recurrence runs inside a band of half-width
// BandHalfWidth around that diagonal. The row kernels are split into two
// specialized functions, calcBand9 and calcBand10 — mirroring the
// calc_band_9/calc_band_10 symbols that dominate CPU cycles in the paper's
// Table IV — which alternate over target rows (even rows take the
// 9-variant, odd rows the 10-variant, so the 9-variant retires slightly
// more work, as in the paper).

// BandHalfWidth is the half-width of the Viterbi band every scan uses. The full
// band width is 2*BandHalfWidth+1 columns per target row.
const BandHalfWidth = 9

const negInf float32 = -1e30

// AlignResult is a banded (or full) Viterbi alignment outcome.
type AlignResult struct {
	Score float32
	// EndCol/EndRow locate the best-scoring cell (profile column, target row).
	EndCol, EndRow int
	// Cells is the number of DP cells evaluated.
	Cells uint64
}

// dpRows holds the three-state DP rows for a band of width w. Reused across
// rows to keep the working set at two rows, and across records via the scan
// workspace.
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

// ensure resizes the rows to width w, reusing capacity when possible.
func (d *dpRows) ensure(w int) {
	if cap(d.m) < w {
		d.m = make([]float32, w)
		d.ins = make([]float32, w)
		d.del = make([]float32, w)
		return
	}
	d.m = d.m[:w]
	d.ins = d.ins[:w]
	d.del = d.del[:w]
}

func (d *dpRows) reset() {
	for i := range d.m {
		d.m[i] = negInf
		d.ins[i] = negInf
		d.del[i] = negInf
	}
}

// BandedViterbi aligns target against the profile inside a band of
// half-width halfWidth around diagonal (profile col − target row). It
// reports per-kernel metering events and returns the best local score.
func BandedViterbi(p *Profile, target *seq.Sequence, diagonal, halfWidth int, m metering.Meter) AlignResult {
	if m == nil {
		m = metering.Nop{}
	}
	if !p.transposed() {
		return referenceBandedViterbi(p, target, diagonal, halfWidth, m)
	}
	ws := takeScanWorkspace()
	res, _ := bandedViterbi(p, target, diagonal, halfWidth, ws, negInf, m)
	releaseScanWorkspace(ws)
	return res
}

// pruneMargin is the slack subtracted from a pruning floor to absorb
// float32 accumulation error: rem sequential adds of values bounded by a
// few hundred drift by well under rem*1e-4, and the constant term covers
// the float32 conversion of the threshold itself. Overshooting the margin
// only costs missed pruning, never a wrong result.
func pruneMargin(rem int) float32 {
	return 1 + float32(rem)*1e-4
}

// bandedViterbi is the workspace-backed banded kernel. With floor = negInf
// it is bitwise identical to referenceBandedViterbi. A real floor arms the
// row-max cutoff: after each row, if neither the best score so far nor any
// state in the current row plus maxMatch-per-remaining-row can reach the
// floor, the remaining rows are provably irrelevant to a caller that only
// acts on scores >= floor, and DP stops. The skipped cell count is returned
// and metered as pruned volume (see recordBandPrune).
func bandedViterbi(p *Profile, target *seq.Sequence, diagonal, halfWidth int, ws *scanWorkspace, floor float32, m metering.Meter) (AlignResult, uint64) {
	if !p.transposed() {
		return referenceBandedViterbi(p, target, diagonal, halfWidth, m), 0
	}
	L := target.Len()
	w := 2*halfWidth + 1
	prev, cur := ws.bandRows(w)
	prev.reset()

	res := AlignResult{Score: 0}
	var cellsEven, cellsOdd, pruned uint64
	prune := floor > negInf/2

	for i := 0; i < L; i++ {
		r := int(target.Residues[i])
		rowT := p.MatchT[r*p.M : (r+1)*p.M]
		// Band columns for this row: center = i + diagonal.
		lo := i + diagonal - halfWidth
		cells, rowMax := calcBandRow(p, rowT, i, lo, w, prev, cur, &res)
		if i%2 == 0 {
			cellsEven += cells
		} else {
			cellsOdd += cells
		}
		prev, cur = cur, prev
		if prune && res.Score < floor {
			// Every path through the remaining rows starts from some state
			// of this row (or a local restart at 0) and gains at most
			// maxMatch per row; penalties only subtract. If that ceiling
			// stays below the floor, the band cannot recover.
			rem := L - 1 - i
			bound := rowMax
			if bound < 0 {
				bound = 0
			}
			if bound+float32(rem)*p.maxMatch+pruneMargin(rem) < floor {
				pruned = countBandCells(i+1, L, diagonal, halfWidth, p.M)
				recordBandPrune(i+1, L, w, pruned, m)
				break
			}
		}
	}
	res.Cells = cellsEven + cellsOdd
	recordBandEvents(p, L, w, cellsEven, cellsOdd, m)
	return res, pruned
}

// calcBandRow evaluates one target row of the banded recurrence against the
// residue-major emission row rowT. prev holds row i-1 aligned to its own
// band window (shifted one column left relative to cur's window because the
// band tracks the diagonal). Returns the in-profile cell count and the
// maximum state value of the row (the input to the pruning bound).
func calcBandRow(p *Profile, rowT []float32, row, lo, w int, prev, cur *dpRows, res *AlignResult) (uint64, float32) {
	var cells uint64
	rowMax := negInf
	M := p.M
	for b := 0; b < w; b++ {
		j := lo + b
		if j < 0 || j >= M {
			cur.m[b] = negInf
			cur.ins[b] = negInf
			cur.del[b] = negInf
			continue
		}
		cells++
		// prev row's band is centered one column left: prev index for
		// column j-1 is b (same slot), for column j is b+1.
		diagM, diagI, diagD := prev.m[b], prev.ins[b], prev.del[b]
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
		mScore := best + rowT[j]
		iScore := maxf(upM+p.Open, upI+p.Extend) + p.InsertPenalty
		dScore := maxf(leftM+p.Open, leftD+p.Extend)

		cur.m[b] = mScore
		cur.ins[b] = iScore
		cur.del[b] = dScore
		if mScore > rowMax {
			rowMax = mScore
		}
		if iScore > rowMax {
			rowMax = iScore
		}
		if dScore > rowMax {
			rowMax = dScore
		}
		if mScore > res.Score {
			res.Score = mScore
			res.EndCol = j
			res.EndRow = row
		}
	}
	return cells, rowMax
}

// countBandCells returns the number of in-profile band cells in target rows
// [from, L) — the DP volume an early cutoff skips.
func countBandCells(from, L, diagonal, halfWidth, M int) uint64 {
	var n uint64
	for i := from; i < L; i++ {
		lo := i + diagonal - halfWidth
		hi := lo + 2*halfWidth
		if lo < 0 {
			lo = 0
		}
		if hi > M-1 {
			hi = M - 1
		}
		if hi >= lo {
			n += uint64(hi - lo + 1)
		}
	}
	return n
}

// recordBandEvents emits the two per-kernel-variant metering events. Per-cell
// costs reflect the 3-state affine recurrence: ~14 instructions, ~56 bytes
// touched (three prior states, emission lookup, three writes).
func recordBandEvents(p *Profile, L, w int, cellsEven, cellsOdd uint64, m metering.Meter) {
	ws := uint64(6*w)*4 + p.MemoryBytes() + uint64(L)
	record := func(fn string, cells uint64) {
		if cells == 0 {
			return
		}
		m.Record(metering.Event{
			Func:           fn,
			Instructions:   cells * 14,
			Bytes:          cells * 56,
			WorkingSet:     ws,
			Pattern:        metering.Strided,
			Branches:       cells * 4,
			BranchMissRate: 0.004,
		})
	}
	record("calc_band_9", cellsEven)
	record("calc_band_10", cellsOdd)
}

// recordBandPrune charges the row-max cutoff's real residual work — one
// bound check per executed row and one band-overlap count per skipped row —
// and records the skipped cells as pruned volume. The skipped cells are NOT
// charged at kernel cost: a cut-off band never touches them at all.
func recordBandPrune(rowsDone, L, w int, pruned uint64, m metering.Meter) {
	m.Record(metering.Event{
		Func:         "band_prune",
		Instructions: uint64(rowsDone)*4 + uint64(L-rowsDone)*2,
		Bytes:        uint64(rowsDone) * 4,
		WorkingSet:   uint64(6*w) * 4,
		Pattern:      metering.Sequential,
		Branches:     uint64(rowsDone),
		Pruned:       pruned,
	})
}

// FullViterbi runs the unbanded O(M·L) recurrence — the reference
// implementation the banded kernels are validated against, and the
// "band width = ∞" arm of the band-width ablation.
func FullViterbi(p *Profile, target *seq.Sequence, m metering.Meter) AlignResult {
	L := target.Len()
	M := p.M
	K := p.K
	prevM := make([]float32, M+1)
	prevI := make([]float32, M+1)
	prevD := make([]float32, M+1)
	curM := make([]float32, M+1)
	curI := make([]float32, M+1)
	curD := make([]float32, M+1)
	for j := 0; j <= M; j++ {
		prevM[j], prevI[j], prevD[j] = negInf, negInf, negInf
	}
	res := AlignResult{Score: 0}
	for i := 0; i < L; i++ {
		r := int(target.Residues[i])
		curM[0], curI[0], curD[0] = negInf, negInf, negInf
		for j := 1; j <= M; j++ {
			best := prevM[j-1]
			if prevI[j-1] > best {
				best = prevI[j-1]
			}
			if prevD[j-1] > best {
				best = prevD[j-1]
			}
			if best < 0 {
				best = 0
			}
			mScore := best + p.Match[(j-1)*K+r]
			iScore := maxf(prevM[j]+p.Open, prevI[j]+p.Extend) + p.InsertPenalty
			dScore := maxf(curM[j-1]+p.Open, curD[j-1]+p.Extend)
			curM[j] = mScore
			curI[j] = iScore
			curD[j] = dScore
			if mScore > res.Score {
				res.Score = mScore
				res.EndCol = j - 1
				res.EndRow = i
			}
		}
		prevM, curM = curM, prevM
		prevI, curI = curI, prevI
		prevD, curD = curD, prevD
	}
	cells := uint64(L) * uint64(M)
	res.Cells = cells
	m.Record(metering.Event{
		Func:           "viterbi_full",
		Instructions:   cells * 14,
		Bytes:          cells * 56,
		WorkingSet:     uint64(6*(M+1))*4 + p.MemoryBytes() + uint64(L),
		Pattern:        metering.Strided,
		Branches:       cells * 4,
		BranchMissRate: 0.004,
	})
	return res
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}
