package hmmer

import (
	"fmt"

	"afsysbench/internal/metering"
	"afsysbench/internal/seq"
)

// Alignment traceback. BandedViterbi returns only the best score; the
// aligned path is needed to stack recruited hits into profile columns for
// the next jackhmmer round (gapped, unlike the diagonal projection), and to
// report alignments to users. The traceback re-runs the banded recurrence
// (band.go's bandRow) keeping every row — metered as the same split into the
// calc_band_9/calc_band_10 row variants, with a backpointer kernel's extra
// write traffic in the events.

// OpKind is one alignment operation.
type OpKind byte

const (
	// OpMatch consumes one profile column and one target residue.
	OpMatch OpKind = 'M'
	// OpInsert consumes one target residue (between profile columns).
	OpInsert OpKind = 'I'
	// OpDelete consumes one profile column (no target residue).
	OpDelete OpKind = 'D'
)

// AlignedPair is one step of an alignment path.
type AlignedPair struct {
	Op OpKind
	// Col is the profile column (0-based) for match/delete, -1 for insert.
	Col int
	// Pos is the target position (0-based) for match/insert, -1 for delete.
	Pos int
}

// Alignment is a local alignment path in ascending column/position order.
type Alignment struct {
	Score float32
	Pairs []AlignedPair
}

// Validate checks path invariants: operations consume coordinates
// monotonically and stay in bounds.
func (a *Alignment) Validate(profileLen, targetLen int) error {
	lastCol, lastPos := -1, -1
	for i, p := range a.Pairs {
		switch p.Op {
		case OpMatch:
			if p.Col <= lastCol || p.Pos <= lastPos {
				return fmt.Errorf("hmmer: pair %d (M) not monotonic", i)
			}
			lastCol, lastPos = p.Col, p.Pos
		case OpInsert:
			if p.Col != -1 || p.Pos <= lastPos {
				return fmt.Errorf("hmmer: pair %d (I) malformed", i)
			}
			lastPos = p.Pos
		case OpDelete:
			if p.Pos != -1 || p.Col <= lastCol {
				return fmt.Errorf("hmmer: pair %d (D) malformed", i)
			}
			lastCol = p.Col
		default:
			return fmt.Errorf("hmmer: pair %d has unknown op %q", i, p.Op)
		}
		if p.Col >= profileLen || p.Pos >= targetLen {
			return fmt.Errorf("hmmer: pair %d out of bounds", i)
		}
	}
	return nil
}

// BandedViterbiAlign runs the banded Viterbi recurrence keeping every row
// and returns both the score result and the traced alignment of the
// best-scoring cell. Its metering events charge the plain kernel plus
// backpointer writes.
func BandedViterbiAlign(p *Profile, target *seq.Sequence, diagonal, halfWidth int, m metering.Meter) (AlignResult, *Alignment) {
	if m == nil {
		m = metering.Nop{}
	}
	p = p.derived()
	ws := takeScanWorkspace()
	res, ali := traceBand(p, target.Residues, diagonal, halfWidth, target.Len(), ws)
	releaseScanWorkspace(ws)
	recordTraceEvents(p, target.Len(), diagonal, halfWidth, m)
	return res, ali
}

// recordTraceEvents charges a traceback over all L rows of a target. The
// scan records it where a candidate clears the Forward gate — the point at
// which hmmsearch, which the events model, aligns it — although the Go
// traceback runs later, for fewer hits and fewer rows (scanDB).
func recordTraceEvents(p *Profile, L, diagonal, halfWidth int, m metering.Meter) {
	w := 2*halfWidth + 1
	even, odd := bandCells(0, L, diagonal, halfWidth, p.M)
	recordCalcBand(traceCost, uint64(6*w)*4*uint64(min(L, 64))+p.MemoryBytes()+uint64(L), even, odd, m)
}

// traceBand is the traceback driver: bandRow over target rows [0, rows)
// into planes that keep every row, then a walk back from the best M cell to
// its local start. A caller that knows the row the best cell is in passes
// rows = EndRow+1: the best cell is the first strict maximum in row-major
// order, so later rows cannot change it. No backpointers are stored — they
// matter only along the path, where each step is derived again from the
// stored costs, with the comparisons and tie-breaks a per-cell pointer
// would have recorded.
func traceBand(p *Profile, residues []byte, diagonal, halfWidth, rows int, ws *scanWorkspace) (AlignResult, *Alignment) {
	M := p.M
	w := 2*halfWidth + 1
	stride := bandStride(w)
	rowLen := 3 * stride
	// Only rows [first, last) have a band that meets the profile; the rest
	// are all noPath and hold no part of any path.
	first, last := max(0, -diagonal-halfWidth), min(rows, M-diagonal+halfWidth)
	var res AlignResult
	if first >= last {
		return res, &Alignment{}
	}
	// Plane row 0 stands for target row first-1; target row i is plane row
	// i-first+1.
	planes := ws.bandRows(last-first+1, w)
	fillNoPath(planes[:rowLen])
	gap := p.gapCosts()
	endSlot := 0
	for i := first; i < last; i++ {
		lo, bLo, bHi := bandSlots(i, diagonal, halfWidth, M)
		prev := planes[(i-first)*rowLen : (i-first+1)*rowLen]
		cur := planes[(i-first+1)*rowLen : (i-first+2)*rowLen]
		clipRow(cur, stride, bLo, bHi)
		at := int(residues[i])*M + lo
		best, k := bandRow(p.MatchT[at+bLo:at+bHi], prev[bLo+1:], cur[bLo+1:], stride, -res.Score, gap)
		if k >= 0 {
			res.Score, res.EndCol, res.EndRow = -best, lo+bLo+k, i
			endSlot = bLo + k
		}
		res.Cells += uint64(bHi - bLo)
	}
	ali := &Alignment{Score: res.Score}
	if res.Score == 0 {
		return res, ali // no cell scored above a restart: nothing to trace
	}

	// Walk back from the best match cell to its local start. The planes
	// hold costs: the lower one wins, and on a tie the order of the tests.
	rev := ws.pairs[:0]
	i, b := res.EndRow, endSlot
	state := OpMatch
	for i >= first && b >= 0 && b < w {
		j := i + diagonal - halfWidth + b
		above := planes[(i-first)*rowLen:]
		at := b + 1 // slot b's index in a state
		switch state {
		case OpMatch:
			rev = append(rev, AlignedPair{Op: OpMatch, Col: j, Pos: i})
			// Diagonal move: previous row, same slot (column j-1).
			best, from := float32(0), OpKind(0)
			if v := above[at]; v < best {
				best, from = v, OpMatch
			}
			if v := above[stride+at]; v < best {
				best, from = v, OpInsert
			}
			if v := above[2*stride+at]; v < best {
				from = OpDelete
			}
			if from == 0 {
				i = first - 1 // local start
				break
			}
			state = from
			i--
		case OpInsert:
			rev = append(rev, AlignedPair{Op: OpInsert, Col: -1, Pos: i})
			// Vertical move: previous row, column j = slot b+1 there.
			if above[at+1]+gap.open <= above[stride+at+1]+gap.ext {
				state = OpMatch
			}
			i--
			b++
		case OpDelete:
			rev = append(rev, AlignedPair{Op: OpDelete, Col: j, Pos: -1})
			// Horizontal move: same row, slot b-1.
			row := above[rowLen:]
			if row[at-1]+gap.open <= row[2*stride+at-1]+gap.ext {
				state = OpMatch
			}
			b--
		}
	}
	ws.pairs = rev // keep the (possibly grown) backing array
	// The alignment lives as long as the cache entry its hit ends up in:
	// exactly sized, in ascending order.
	ali.Pairs = make([]AlignedPair, len(rev))
	for k, pr := range rev {
		ali.Pairs[len(rev)-1-k] = pr
	}
	return res, ali
}

// BuildGappedAlignment stacks hits below the inclusion threshold into
// profile-column rows, the input to BuildFromAlignment for the next search
// round, using their traced alignments: matched target residues land in
// their aligned columns, deletions leave gaps, insertions are dropped
// (standard profile-column semantics). Hits without a traced alignment
// fall back to the ungapped diagonal projection. Row 0 is the query.
func BuildGappedAlignment(query *seq.Sequence, hits []Hit, inclusionE float64) [][]byte {
	rows := [][]byte{append([]byte(nil), query.Residues...)}
	for _, h := range hits {
		if h.EValue > inclusionE {
			continue
		}
		row := make([]byte, query.Len())
		for col := range row {
			row[col] = GapResidue
		}
		if h.Alignment != nil && len(h.Alignment.Pairs) > 0 {
			for _, pr := range h.Alignment.Pairs {
				if pr.Op == OpMatch && pr.Col >= 0 && pr.Col < len(row) {
					row[pr.Col] = h.Target.Residues[pr.Pos]
				}
			}
		} else {
			for col := range row {
				tpos := col - h.Diagonal
				if tpos >= 0 && tpos < h.Target.Len() {
					row[col] = h.Target.Residues[tpos]
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}
