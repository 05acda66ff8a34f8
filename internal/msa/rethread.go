package msa

import (
	"fmt"
	"slices"

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
// The reader lanes come from the DBSet res was run against, which must not
// have changed since: a set whose databases are no longer the chains'
// panics.
func (res *Result) Rethread(threads int) *Result {
	out := *res
	out.Workers = newWorkers(threads)
	var buf [maxScans]*readerLane
	for _, d := range res.deltas {
		lanes, err := res.dbs.appendLanes(buf[:0], d)
		if err == nil {
			err = d.credit(out.Workers, lanes)
		}
		if err != nil {
			panic(fmt.Sprintf("msa: Rethread: %v", err))
		}
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
// two running totals per function — the chain's own, found by index or by
// a binary search of the records a sparse function has events in, and for
// the reader lane its database's, lanes[i] for the round's i-th scan — so
// that part costs O(len(workers) × scans × functions) additions whatever
// the chain's event count, and reads no event. The seed lane is one walk
// of the chain's probe counts beside its databases' record lengths
// (readerLane.seeds), cut at the spans' ends; its instructions must add up
// to the seedWork the chain counts, or crediting it here credited other
// databases' records, which is an error.
func (d *chainDelta) credit(workers []*metering.Accumulator, lanes []*readerLane) error {
	rounds := d.rounds()
	for k := range d.sums {
		s := &d.sums[k]
		r := 0 // the current scan's first record
		for range rounds {
			for _, sc := range d.dbRecs {
				lo := s.at(r)
				for t, acc := range workers {
					_, end := parallel.Span(sc.records, t, len(workers))
					hi := s.at(r + end)
					acc.Credit[s.f].Add(hi.Sub(lo))
					lo = hi
				}
				r += sc.records
			}
		}
	}
	// Every round scans the same records, so a span's reader work is the
	// same in each: credit it times the rounds.
	for i, sc := range d.dbRecs {
		cum := lanes[i].cum
		lo := 0
		for t, acc := range workers {
			_, hi := parallel.Span(sc.records, t, len(workers))
			for k, f := range readerFuncs {
				acc.Credit[f].Add(times(cum[hi][k].Sub(cum[lo][k]), uint64(rounds)))
			}
			lo = hi
		}
	}
	if seed := d.creditSeeds(workers, lanes); seed != d.seedWork {
		return fmt.Errorf("msa: chain %s counts %d seed instructions, the set's databases %d", d.cr.ChainID, d.seedWork, seed)
	}
	return nil
}

// rounds is how many rounds of its scans the chain ran.
func (d *chainDelta) rounds() int {
	records := 0
	for _, sc := range d.dbRecs {
		records += sc.records
	}
	if records == 0 {
		return 0
	}
	return d.cr.Scanned / records
}

// creditSeeds credits the chain's seed lane to workers as credit cuts it,
// and returns its instructions. Every round takes the same records through
// the same query's seed index, so a later round's span whose probe entries
// are the first round's is credited the first round's work without a
// second walk.
func (d *chainDelta) creditSeeds(workers []*metering.Accumulator, lanes []*readerLane) uint64 {
	rounds, round := d.rounds(), 0
	if rounds == 0 {
		return 0
	}
	for _, sc := range d.dbRecs {
		round += sc.records
	}
	var work uint64
	base := 0 // the scan's first record in the first round
	for i, sc := range d.dbRecs {
		lo := 0
		for t, acc := range workers {
			_, hi := parallel.Span(sc.records, t, len(workers))
			first := d.probes[base+lo : base+hi]
			once := lanes[i].seeds(first, lo)
			s := once
			for k := 1; k < rounds; k++ {
				if span := d.probes[k*round+base+lo : k*round+base+hi]; slices.Equal(span, first) {
					s.Add(once)
				} else {
					s.Add(lanes[i].seeds(span, lo))
				}
			}
			acc.Credit[metering.SeedFilter].Add(s)
			work += s.Instructions
			lo = hi
		}
		base += sc.records
	}
	return work
}
