package msa

import (
	"afsysbench/internal/metering"
	"afsysbench/internal/parallel"
)

// Rethread returns res as a search at threads workers (≥ 1) would have
// attributed it. A thread count decides only which worker each record's
// metering work lands in — hits, features and counters are bitwise
// identical at any count — so Rethread re-merges res's chain deltas into
// threads new workers instead of searching again.
//
// Everything in the returned Result except Workers is shared with res.
func (res *Result) Rethread(threads int) *Result {
	out := *res
	out.Workers = newWorkers(threads)
	for _, d := range res.deltas {
		d.credit(out.Workers)
	}
	return &out
}

// newWorkers returns n empty accumulators.
func newWorkers(n int) []*metering.Accumulator {
	accs := make([]metering.Accumulator, n)
	out := make([]*metering.Accumulator, n)
	for i := range out {
		out[i] = &accs[i]
	}
	return out
}

// credit adds the delta's work to workers as a search at len(workers)
// threads attributes it: worker t takes, from every scan of n records, the
// records parallel.Span(n, t, len(workers)). Each span is the difference of
// two running totals per function — found by index, or by a binary search
// of the records a sparse function has events in — so a merge costs
// O(len(workers) × scans × functions) additions whatever the chain's event
// count, and reads no event.
func (d *chainDelta) credit(workers []*metering.Accumulator) {
	records := 0
	for _, n := range d.dbRecs {
		records += n
	}
	rounds := 0
	if records > 0 {
		rounds = d.cr.Scanned / records
	}
	for k := range d.sums {
		s := &d.sums[k]
		r := 0 // the current scan's first record
		for range rounds {
			for _, n := range d.dbRecs {
				lo := s.at(r)
				for t, acc := range workers {
					_, end := parallel.Span(n, t, len(workers))
					hi := s.at(r + end)
					acc.Credit[s.f].Add(hi.Sub(lo))
					lo = hi
				}
				r += n
			}
		}
	}
}
