package hmmer

import (
	"math"

	"afsysbench/internal/metering"
	"afsysbench/internal/seq"
)

// Reference kernels: the column-major (Match[col*K+residue]) scan path with
// per-call scratch allocation. These are the pre-optimization kernels, kept
// for three jobs:
//
//   - correctness oracle — the equivalence tests assert the transposed
//     Viterbi kernels reproduce these bitwise, and hold the odds-space
//     Forward kernel, a different algorithm, to a stated tolerance against
//     the log-space definition kept here;
//   - fallback — a hand-assembled Profile without MatchT (BuildTransposed
//     never called) still searches correctly through this path;
//   - baseline — BenchmarkScan* measures the optimized cascade against
//     these on identical inputs.
//
// They intentionally preserve the original allocation behavior (fresh DP
// rows per call) so the benchmark comparison reflects the real before/after
// cost, not just the layout change.

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

	recordBandEvents(p, L, w, cellsEven, cellsOdd, m)
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
