package msa

import (
	"sync"

	"afsysbench/internal/hmmer"
	"afsysbench/internal/metering"
)

// chainDelta is the complete contribution of one chain's searches to a
// Result: the summary row, the final-round hit list (pairing input), the
// metering events, the streamed byte totals and the serial work. Chains
// compute their delta privately — against scratch accumulators, never the
// shared Result — which is what makes two things possible without
// disturbing determinism: a checkpoint can replay a completed chain
// verbatim on a stage retry, and the merge into the Result happens in chain
// order exactly as the serial code did.
//
// The events are the chain's, not a thread count's: one stream in record
// order, every record's events from its copy_to_iter up to the next (the
// contract on hmmer.Buffer.Next), with the index where each record starts.
// How many goroutines scanned it is not recorded, so one delta serves every
// thread count (link).
type chainDelta struct {
	cr   ChainResult
	hits []hmmer.Hit
	// events is the stream as pieces, in order: sub-slices of the
	// accumulators the search recorded into, where touching pieces of one
	// accumulator are one piece, or the one list a payload decodes to.
	events [][]metering.Event
	// dbRecs is one round's scan sequence: the record count of each
	// database it scans, in order. The chain ran cr.Scanned / Σ dbRecs
	// rounds of it.
	dbRecs []int
	// starts[r] is the stream index of record r's first event, over every
	// scan's records in order; starts[cr.Scanned] is the stream's length.
	starts   []int32
	streamed map[string]int64
	serial   uint64
}

// merge replays a delta into the result: its events are re-cut into
// len(res.Workers) workers by link — by reference, never copied: the delta
// may belong to a checkpoint or to the serving cache and be replayed into
// many results at once, so it is read-only from here on.
func (res *Result) merge(d *chainDelta) {
	res.PerChain = append(res.PerChain, d.cr)
	res.deltas = append(res.deltas, d)
	res.TotalHitResidues += d.cr.HitResidues
	d.link(res.Workers)
	for name, b := range d.streamed {
		res.Streamed[name] += b
	}
	res.SerialInstructions += d.serial
}

// Checkpoint preserves completed per-chain search deltas across retries
// of an MSA phase, so a retried stage re-runs only the chains that had
// not finished when the previous attempt faulted — the rest replay
// verbatim, streamed bytes, metering events and all. Entries are scoped
// by the database profile signature: a degradation-ladder re-plan against
// a reduced set must never reuse a delta computed against the full one.
// Safe for concurrent use; a nil *Checkpoint stores nothing (the
// package's unconditional-call-site convention).
type Checkpoint struct {
	mu     sync.Mutex
	chains map[string]*chainDelta
}

// NewCheckpoint returns an empty checkpoint.
func NewCheckpoint() *Checkpoint {
	return &Checkpoint{chains: make(map[string]*chainDelta)}
}

func (c *Checkpoint) lookup(scope, chainID string) *chainDelta {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chains[scope+"|"+chainID]
}

func (c *Checkpoint) store(scope, chainID string, d *chainDelta) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.chains[scope+"|"+chainID] = d
	c.mu.Unlock()
}

// Len returns the number of checkpointed chain deltas across all scopes.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.chains)
}
