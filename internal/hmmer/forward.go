package hmmer

import (
	"math"

	"afsysbench/internal/metering"
	"afsysbench/internal/seq"
)

// Forward computes the Forward score of the target under the profile — the
// log of the summed odds of every local path — within the same band used by
// the Viterbi pass. Forward is the
// final, most expensive scoring stage (posterior-summed rather than
// best-path) and runs only on Viterbi survivors; its score feeds the
// E-value.
func Forward(p *Profile, target *seq.Sequence, diagonal, halfWidth int, m metering.Meter) float64 {
	if m == nil {
		m = metering.Nop{}
	}
	ws := takeScanWorkspace()
	f := forward(p.derived(), target, diagonal, halfWidth, ws, m)
	releaseScanWorkspace(ws)
	return f
}

// Rows and the running total are rescaled by an exact power of two whenever
// they leave [2^-fwdScaleBits, 2^fwdScaleBits]. Per-row growth is bounded by
// the largest emission odds (a few dozen bits), so nothing overflows between
// checks, and because every rescale is exact the score does not depend on
// where the thresholds sit.
const (
	fwdScaleBits = 200
	fwdScaleHi   = 1 << fwdScaleBits
	fwdScaleLo   = 1.0 / fwdScaleHi
)

// forward is the workspace-backed Forward kernel: the log-space definition
// (the test oracle in reference_test.go) evaluated in scaled odds space, the
// way HMMER3 runs Forward.
// Every quantity is exp() of its log-space counterpart divided by a power
// of two, so a cell costs three adds and three multiplies and the only
// logarithm is the one on the final total. It agrees with the log-space
// oracle to 1e-9 + 1e-12·|score| (forward_test.go), not bitwise; every
// product path runs this one kernel, so threads × shards × cache tiers
// still agree bit for bit.
//
// The rows hold true/2^rowExp and are scaled by their own sum, not by the
// total: when a domain's paths decay over a junk stretch the scale comes
// back down with them, so the local-alignment start term 2^-rowExp (exp(0)
// in log space; it underflows to 0 exactly when it stops mattering)
// reappears for a later domain. The total keeps its own exponent.
//
// Each product sits inside an explicit float64 conversion so no GOARCH may
// fuse it into an FMA: replicas of one cluster then agree bit for bit
// whatever they run on.
func forward(p *Profile, target *seq.Sequence, diagonal, halfWidth int, ws *scanWorkspace, m metering.Meter) float64 {
	M := p.M
	w := 2*halfWidth + 1
	prev, cur := ws.forwardRows(w)
	open := p.openOdds
	var (
		rowExp, totExp int     // rows hold true/2^rowExp, total true/2^totExp
		start          = 1.0   // 2^-rowExp
		toTotal        = 1.0   // 2^(rowExp-totExp)
		total          float64 // sum of every cell so far
		cells          uint64
	)
	for i, res := range target.Residues {
		lo := i + diagonal - halfWidth
		if lo >= M {
			break // the band has left the profile for good
		}
		if lo+w <= 0 {
			continue // not reached it yet: both rows are still all zero
		}
		// Slots [bLo, bHi) of this row are inside the profile; the rest
		// read as 0 (log-space -Inf) from the next row.
		bLo, bHi := max(-lo, 0), min(M-lo, w)
		clear(cur[:bLo])
		clear(cur[bHi:w])
		odds := p.oddsT[int(res)*M+lo+bLo : int(res)*M+lo+bHi]
		row := cur[bLo:bHi]
		// diag[k] is column j-1 of the previous row, diag[k+1] column j:
		// the band moves one column right per row, and the pad slot keeps
		// the last read in range.
		diag := prev[bLo : bHi+1]
		var left, rowSum float64
		for k, e := range odds {
			enter := diag[k] + float64(open*diag[k+1]) + start
			left = float64((enter + float64(open*left)) * e)
			row[k] = left
			rowSum += left
		}
		cells += uint64(len(odds))
		total += float64(rowSum * toTotal)
		if rowSum > fwdScaleHi || (rowSum < fwdScaleLo && rowSum > 0) {
			_, e := math.Frexp(rowSum)
			scale := math.Ldexp(1, -e)
			for k := range row {
				row[k] = float64(row[k] * scale)
			}
			rowExp += e
			start = math.Ldexp(1, -rowExp)
			toTotal = math.Ldexp(1, rowExp-totExp)
		}
		if total > fwdScaleHi {
			frac, e := math.Frexp(total)
			total = frac
			totExp += e
			toTotal = math.Ldexp(1, rowExp-totExp)
		}
		prev, cur = cur, prev
	}
	recordForwardEvent(p, w, cells, m)
	if total == 0 {
		return 0
	}
	return math.Log(total) + float64(totExp)*math.Ln2
}

// recordForwardEvent meters a Forward pass over cells in-profile band cells.
// The per-cell costs model hmmsearch's Forward on the paper's machines,
// which Table IV and every modeled second are calibrated to — not either Go
// loop in this package: making those cheaper does not change them.
func recordForwardEvent(p *Profile, w int, cells uint64, m metering.Meter) {
	m.Record(metering.Event{
		Func:         metering.ForwardBand,
		Instructions: cells * 30,
		Bytes:        cells * 40,
		WorkingSet:   uint64(2*w)*8 + p.MemoryBytes(),
		Branches:     cells * 2,
	})
}
