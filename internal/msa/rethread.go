package msa

import (
	"fmt"

	"afsysbench/internal/metering"
	"afsysbench/internal/parallel"
)

// recordStart is the event every record's scan records first (the contract
// on hmmer.Buffer.Next): a worker's stream is its records' events, each
// record from its copy_to_iter up to the next one.
const recordStart = "copy_to_iter"

// Rethread returns res as a search at threads workers would have attributed
// it. A thread count decides only which worker each record's metering
// events land in — hits, features and counters are bitwise identical at any
// count — so instead of searching again, Rethread re-cuts res's per-record
// event runs along the shard spans parallel.Shards would use at threads.
// dbs is the database profile res was searched against.
//
// Everything in the returned Result except Workers is shared with res. The
// new workers link sub-slices of res's runs and copy no event, so they are
// read-only like res's own.
//
// The scan sequence is derived, not stored: chain c ran
// PerChain[c].Scanned / Σ len(db.Seqs) rounds over dbs.For(c.Type), each
// round scanning every database in catalog order, and worker w of a scan
// over n records took parallel.Span(n, w, len(res.Workers)). A stream out of
// step with that — a record that does not start with copy_to_iter, a
// stream that ends early or has events left over — is an error, never a
// guess.
func (res *Result) Rethread(threads int, dbs *DBSet) (*Result, error) {
	if threads < 1 || len(res.Workers) == 0 {
		return nil, fmt.Errorf("msa: rethread %d workers to %d", len(res.Workers), threads)
	}
	src := make([]eventCursor, len(res.Workers))
	for w, acc := range res.Workers {
		src[w].acc = acc
	}
	dst := make([]*metering.Accumulator, threads)
	for t := range dst {
		dst[t] = &metering.Accumulator{}
	}
	for _, cr := range res.PerChain {
		scans := dbs.For(cr.Type)
		records := 0
		for _, db := range scans {
			records += len(db.Seqs)
		}
		rounds := 0
		if records > 0 {
			rounds = cr.Scanned / records
		}
		if rounds*records != cr.Scanned {
			return nil, fmt.Errorf("msa: rethread chain %s: %d records scanned is not a whole number of %d-record rounds",
				cr.ChainID, cr.Scanned, records)
		}
		for r := 0; r < rounds; r++ {
			for _, db := range scans {
				if err := recutScan(len(db.Seqs), src, dst); err != nil {
					return nil, fmt.Errorf("msa: rethread chain %s round %d, %s: %w", cr.ChainID, r+1, db.Name, err)
				}
			}
		}
	}
	for w := range src {
		if !src[w].atEnd() {
			return nil, fmt.Errorf("msa: rethread: worker %d has events left over after the last scan", w)
		}
	}
	out := *res
	out.Workers = dst
	return &out, nil
}

// recutScan moves one scan of n records from the source workers' streams to
// the target accumulators: target t takes records parallel.Span(n, t,
// len(dst)), in record order.
func recutScan(n int, src []eventCursor, dst []*metering.Accumulator) error {
	t := 0
	for w := range src {
		lo, hi := parallel.Span(n, w, len(src))
		for lo < hi {
			_, thi := parallel.Span(n, t, len(dst))
			for thi <= lo {
				t++
				_, thi = parallel.Span(n, t, len(dst))
			}
			end := min(hi, thi)
			if err := src[w].take(end-lo, dst[t]); err != nil {
				return fmt.Errorf("worker %d: %w", w, err)
			}
			lo = end
		}
	}
	return nil
}

// eventCursor walks one source worker's stream: event i of run r is next.
type eventCursor struct {
	acc  *metering.Accumulator
	r, i int
}

// atEnd moves the cursor past the runs it has read to the end and reports
// whether that is the whole stream.
func (c *eventCursor) atEnd() bool {
	for c.r < c.acc.Runs() && c.i == len(c.acc.Run(c.r)) {
		c.r, c.i = c.r+1, 0
	}
	return c.r == c.acc.Runs()
}

// take links the next k records' events into dst, one sub-slice per run
// they lie in. A record ends at the next copy_to_iter or at the end of its
// run; one split across runs fails the next run's copy_to_iter check.
func (c *eventCursor) take(k int, dst *metering.Accumulator) error {
	for k > 0 {
		if c.atEnd() {
			return fmt.Errorf("the stream ends with %d records still to take", k)
		}
		run, lo := c.acc.Run(c.r), c.i
		for ; k > 0 && c.i < len(run); k-- {
			if f := run[c.i].Func; f != recordStart {
				return fmt.Errorf("a record starts with %s, not %s", f, recordStart)
			}
			c.i++
			for c.i < len(run) && run[c.i].Func != recordStart {
				c.i++
			}
		}
		dst.LinkRun(run[lo:c.i])
	}
	return nil
}
