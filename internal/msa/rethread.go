package msa

import (
	"afsysbench/internal/metering"
	"afsysbench/internal/parallel"
)

// Rethread returns res as a search at threads workers (≥ 1) would have
// attributed it. A thread count decides only which worker each record's
// metering events land in — hits, features and counters are bitwise
// identical at any count — so Rethread re-merges res's chain deltas into
// threads new workers instead of searching again.
//
// Everything in the returned Result except Workers is shared with res. The
// new workers link res's events in place and copy none, so they are
// read-only like res's own.
func (res *Result) Rethread(threads int) *Result {
	out := *res
	out.Workers = newWorkers(threads)
	for _, d := range res.deltas {
		d.link(out.Workers)
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

// link re-cuts the delta's stream into workers as a search at len(workers)
// threads attributes it: worker t takes, from every scan of n records, the
// records parallel.Span(n, t, len(workers)), in record order. starts turns
// a record range into a stream range, which links as sub-slices of the
// pieces it covers — no event is walked or copied, so a merge costs
// O(len(workers) × scans) runs whatever the chain's size.
func (d *chainDelta) link(workers []*metering.Accumulator) {
	records := 0
	for _, n := range d.dbRecs {
		records += n
	}
	rounds := 0
	if records > 0 {
		rounds = d.cr.Scanned / records
	}
	for t, acc := range workers {
		c := recut{events: d.events, acc: acc}
		r := 0 // the current scan's first record
		for range rounds {
			for _, n := range d.dbRecs {
				lo, hi := parallel.Span(n, t, len(workers))
				c.take(int(d.starts[r+lo]), int(d.starts[r+hi]))
				r += n
			}
		}
		c.flush()
	}
}

// recut links stream ranges, in increasing order, into one accumulator. A
// range that continues the pending run in the same piece extends it, so a
// one-piece stream taken whole — every chain searched or decoded at width 1,
// merged at one thread — links as a single run.
type recut struct {
	events [][]metering.Event
	acc    *metering.Accumulator
	k      int // the current piece, events[k] ...
	base   int // ... which begins at this stream index
	lo, hi int // the pending run, events[k][lo:hi]
}

// take links stream indexes [a, b).
func (c *recut) take(a, b int) {
	for a < b {
		for a >= c.base+len(c.events[c.k]) {
			c.flush()
			c.base += len(c.events[c.k])
			c.k++
		}
		end := min(b, c.base+len(c.events[c.k]))
		if a-c.base != c.hi {
			c.flush()
			c.lo = a - c.base
		}
		c.hi = end - c.base
		a = end
	}
}

// flush links the pending run.
func (c *recut) flush() {
	if c.lo < c.hi {
		c.acc.LinkRun(c.events[c.k][c.lo:c.hi])
	}
	c.lo, c.hi = 0, 0
}
