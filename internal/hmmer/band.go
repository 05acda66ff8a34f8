package hmmer

import (
	"afsysbench/internal/metering"
	"afsysbench/internal/seq"
)

// Banded Viterbi alignment.
//
// After the seed filter identifies a promising diagonal, the full
// affine-gap Viterbi recurrence runs inside a band of half-width
// BandHalfWidth around that diagonal. The recurrence is written once, in
// bandRow; three drivers feed it rows: the scoring pass below, the
// traceback (traceback.go) and the unbanded FullViterbi. The metered events
// keep the split into calc_band_9 and calc_band_10 — the symbols that
// dominate CPU cycles in the paper's Table IV — which alternate over target
// rows (even rows take the 9-variant, odd rows the 10-variant, so the
// 9-variant retires slightly more work, as in the paper).

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

// The DP rows hold costs — negated scores, minimised — because that is the
// direction Go compiles cheaply: a float max is lowered as −min(−a, −b), and
// the negations sit on the recurrence's loop-carried chain (bandRow). IEEE
// negation is exact and rounding is symmetric in sign, so every cost is the
// exact negation of the score the max-plus form computes, and the drivers
// negate back what they report. noPath is the cost of a cell no path
// reaches: −negInf.
const noPath = -negInf

// A DP row of a band of width w is 3·(w+2) floats, [M | I | D]: each state
// holds band slot b at index b+1 between two pads that stay noPath, so the
// reads of prev[b+1] at the band's right edge and cur[b-1] at its left need
// no test. bandStride is the length of one state.
func bandStride(w int) int { return w + 2 }

// bandSlots returns the profile column of slot 0 of target row i's band and
// the slots [bLo, bHi) of it that lie inside the profile (none when
// bLo >= bHi): the band is centred on column i + diagonal.
func bandSlots(i, diagonal, halfWidth, M int) (lo, bLo, bHi int) {
	lo = i + diagonal - halfWidth
	return lo, max(-lo, 0), min(M-lo, 2*halfWidth+1)
}

func fillNoPath(s []float32) {
	for i := range s {
		s[i] = noPath
	}
}

// clipRow writes noPath to every slot of a row outside the in-profile band
// slots [bLo, bHi) — pads included, since a row may be reused memory.
// bandRow writes the rest.
func clipRow(row []float32, stride, bLo, bHi int) {
	for s := 0; s < 3; s++ {
		state := row[s*stride : (s+1)*stride]
		fillNoPath(state[:bLo+1])
		fillNoPath(state[bHi+1:])
	}
}

// gapCosts are a profile's three gap penalties as costs.
type gapCosts struct{ open, ext, ins float32 }

func (p *Profile) gapCosts() gapCosts { return gapCosts{-p.Open, -p.Extend, -p.InsertPenalty} }

// bandRow is the affine-gap Viterbi recurrence over one row's in-profile
// cells, one per entry of emis (the row's emission scores, contiguous in
// MatchT). prev and cur are the previous and current rows, each positioned
// at the first of those cells: prev[k] is the cell diagonally before cell k
// and prev[k+1] the one above it, in each state (stride apart); the cell
// left of the first one is always outside the profile or a pad. It returns
// the lowest M cost — best, or that of the first cell to go below it — and
// that cell's index, -1 when none does.
//
// The five minima use the min builtin, which compiles branch-free (two MINSS
// and a POR on amd64, FMIN on arm64): on database targets the data-dependent
// branches of compare-and-pick mispredict enough to cost more than the
// arithmetic. It differs from compare-and-pick only on NaN and -0, and
// neither can occur: no table entry is NaN or -0, noPath is finite, and a
// float sum or difference is -0 only when its first operand already is.
func bandRow(emis, prev, cur []float32, stride int, best float32, gap gapCosts) (float32, int) {
	// Every slice is cut to len(emis) so the loop needs no bounds check.
	n := len(emis)
	dM, dI, dD := prev[:n], prev[stride:][:n], prev[2*stride:][:n]
	uM, uI := prev[1:][:n], prev[stride+1:][:n]
	cM, cI, cD := cur[:n], cur[stride:][:n], cur[2*stride:][:n]
	leftM, leftD := noPath, noPath
	bestK := -1
	for k, e := range emis {
		m := min(dM[k], dI[k], dD[k], 0) - e // 0: local alignment restart
		i := min(uM[k]+gap.open, uI[k]+gap.ext) + gap.ins
		d := min(leftM+gap.open, leftD+gap.ext)
		cM[k], cI[k], cD[k] = m, i, d
		leftM, leftD = m, d
		if m < best {
			best, bestK = m, k
		}
	}
	return best, bestK
}

// BandedViterbi aligns target against the profile inside a band of
// half-width halfWidth around diagonal (profile col − target row). It
// reports per-kernel metering events and returns the best local score.
func BandedViterbi(p *Profile, target *seq.Sequence, diagonal, halfWidth int, m metering.Meter) AlignResult {
	if m == nil {
		m = metering.Nop{}
	}
	ws := takeScanWorkspace()
	res, _ := bandedViterbi(p.derived(), target, diagonal, halfWidth, ws, negInf, m)
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

// bandedViterbi is the scoring driver: two rows from the workspace, best
// cell only. A real floor arms the row-max cutoff: after each row, if
// neither the best score so far nor any state in the current row plus
// maxMatch-per-remaining-row can reach the floor, the remaining rows are
// provably irrelevant to a caller that only acts on scores >= floor, and DP
// stops. The skipped cell count is returned and metered as pruned volume
// (see recordBandPrune). With floor = negInf nothing is cut.
//
// Rows whose band does not meet the profile run no DP and store nothing:
// before the band enters, both rows are still all noPath; after it leaves,
// no score can change. The cutoff is still tested on them (with nothing in
// the row to count), so it fires on the row it always did.
func bandedViterbi(p *Profile, target *seq.Sequence, diagonal, halfWidth int, ws *scanWorkspace, floor float32, m metering.Meter) (AlignResult, uint64) {
	L, M := target.Len(), p.M
	w := 2*halfWidth + 1
	stride := bandStride(w)
	rows := ws.bandRows(2, w)
	prev, cur := rows[:3*stride], rows[3*stride:]
	fillNoPath(rows)

	var res AlignResult
	var cells [2]uint64 // even rows, odd rows
	var pruned uint64
	prune := floor > negInf/2
	gap := p.gapCosts()

	for i, r := range target.Residues {
		lo, bLo, bHi := bandSlots(i, diagonal, halfWidth, M)
		inProfile := bLo < bHi
		if inProfile {
			if bHi < w {
				// The band is leaving the profile: slots this buffer's
				// last row filled are now outside it. Slots left of bLo
				// need nothing: bLo only shrinks, so they are as the
				// fill above left them.
				clipRow(cur, stride, bLo, bHi)
			}
			at := int(r)*M + lo
			best, k := bandRow(p.MatchT[at+bLo:at+bHi], prev[bLo+1:], cur[bLo+1:], stride, -res.Score, gap)
			if k >= 0 {
				res.Score, res.EndCol, res.EndRow = -best, lo+bLo+k, i
			}
			cells[i&1] += uint64(bHi - bLo)
			prev, cur = cur, prev
		}
		if prune && res.Score < floor {
			// Every path through the remaining rows starts from some state
			// of this row (or a local restart at 0) and gains at most
			// maxMatch per row; penalties only subtract. If that ceiling
			// stays below the floor, the band cannot recover. The ceiling
			// of a restart alone is tested first: float addition is
			// monotone, so until it is below the floor no row state can
			// bring the full bound there, and the row maximum — three
			// compares a cell when kept per cell — is only taken on the
			// last few rows, where it can matter.
			rem := L - 1 - i
			ceiling := func(bound float32) float32 {
				return bound + float32(rem)*p.maxMatch + pruneMargin(rem)
			}
			if ceiling(0) < floor {
				lowest := float32(0)
				if inProfile {
					for _, v := range prev { // the row just finished
						lowest = min(lowest, v)
					}
				}
				if ceiling(-lowest) < floor {
					even, odd := bandCells(i+1, L, diagonal, halfWidth, M)
					pruned = even + odd
					recordBandPrune(i+1, L, w, pruned, m)
					break
				}
			}
		}
	}
	res.Cells = cells[0] + cells[1]
	recordCalcBand(scoreCost, uint64(6*w)*4+p.MemoryBytes()+uint64(L), cells[0], cells[1], m)
	return res, pruned
}

// bandCells returns the number of in-profile band cells in the even and the
// odd target rows of [from, to) — what a DP pass over those rows evaluates.
func bandCells(from, to, diagonal, halfWidth, M int) (even, odd uint64) {
	var cells [2]uint64
	for i := from; i < to; i++ {
		if _, bLo, bHi := bandSlots(i, diagonal, halfWidth, M); bLo < bHi {
			cells[i&1] += uint64(bHi - bLo)
		}
	}
	return cells[0], cells[1]
}

// calcBandCost is the per-cell cost the machine models charge a calc_band
// pass. Like recordForwardEvent's, the numbers model hmmsearch on the
// paper's machines, not the Go loops in this package.
type calcBandCost struct{ instructions, bytes, branches uint64 }

var (
	// The 3-state affine recurrence: ~14 instructions, ~56 bytes touched
	// (three prior states, emission lookup, three writes).
	scoreCost = calcBandCost{14, 56, 4}
	// The recurrence plus backpointer writes.
	traceCost = calcBandCost{17, 68, 5}
)

// recordCalcBand emits the two per-kernel-variant metering events of one
// band pass over cellsEven + cellsOdd cells.
func recordCalcBand(c calcBandCost, workingSet, cellsEven, cellsOdd uint64, m metering.Meter) {
	record := func(fn string, cells uint64) {
		if cells == 0 {
			return
		}
		m.Record(metering.Event{
			Func:           fn,
			Instructions:   cells * c.instructions,
			Bytes:          cells * c.bytes,
			WorkingSet:     workingSet,
			Pattern:        metering.Strided,
			Branches:       cells * c.branches,
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

// FullViterbi runs the unbanded O(M·L) recurrence — what the banded kernels
// are validated against, and the "band width = ∞" arm of the band-width
// ablation. It is bandRow over whole profile rows: a cell's diagonal and
// upper neighbours sit one column left and in the same column of the
// previous row, so that row is read from one slot further left than the
// band drivers read theirs.
func FullViterbi(p *Profile, target *seq.Sequence, m metering.Meter) AlignResult {
	if m == nil {
		m = metering.Nop{}
	}
	p = p.derived()
	L, M := target.Len(), p.M
	stride := bandStride(M)
	ws := takeScanWorkspace()
	rows := ws.bandRows(2, M)
	prev, cur := rows[:3*stride], rows[3*stride:]
	fillNoPath(prev)
	clipRow(cur, stride, 0, M)
	var res AlignResult
	gap := p.gapCosts()
	for i, r := range target.Residues {
		best, k := bandRow(p.MatchT[int(r)*M:(int(r)+1)*M], prev, cur[1:], stride, -res.Score, gap)
		if k >= 0 {
			res.Score, res.EndCol, res.EndRow = -best, k, i
		}
		prev, cur = cur, prev
	}
	releaseScanWorkspace(ws)
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
