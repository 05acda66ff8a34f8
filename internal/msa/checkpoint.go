package msa

import (
	"slices"
	"sync"

	"afsysbench/internal/hmmer"
	"afsysbench/internal/metering"
)

// chainDelta is the complete contribution of one chain's searches to a
// Result: the summary row, the final-round hit list (pairing input), the
// metering work, the streamed byte totals and the serial work. Chains
// compute their delta privately — against scratch accumulators, never the
// shared Result — which is what makes two things possible without
// disturbing determinism: a checkpoint can replay a completed chain
// verbatim on a stage retry, and the merge into the Result happens in chain
// order exactly as the serial code did.
//
// The metering work is the chain's, not a thread count's: the scans fold
// their events per record as they record them, and the delta stitches
// those rows into per-function sums at record boundaries (funcSums). No
// event is kept. How many goroutines scanned it is not recorded, so one
// delta serves every thread count (credit). The reader lane — copy_to_iter,
// addbuf and seebuf — is not the query's but its databases', so the delta
// keeps only its instruction total and a merge credits it from the
// databases' own tables (readerLane).
type chainDelta struct {
	cr   ChainResult
	hits []hmmer.Hit
	// dbRecs is one round's scan sequence: each database it scans, in
	// order, with its record count. The chain ran cr.Scanned / Σ records
	// rounds of it.
	dbRecs []dbRecords
	// sums holds one entry per function the scans recorded work for, in
	// Func order; no reader function is among them.
	sums []funcSums
	// readerWork is the reader lane's instructions over the chain's scans,
	// which Work counts and a merge checks against the lanes it credits.
	readerWork uint64
	streamed   map[string]int64
	serial     uint64
}

// dbRecords is one scan of a round: the database's name and its records.
type dbRecords struct {
	name    string
	records int
}

// funcSums is one function's work over a chain's records, r = 0 ..
// cr.Scanned−1 across every scan in order: recs lists the records the
// function has events in, ascending — nil when that is every record — and
// cum[i] is its work over the first i of them, so len(cum) = len(recs)+1.
// Neither holds a pointer.
type funcSums struct {
	f    metering.Func
	recs []int32
	cum  []metering.Tally
}

// at returns the function's work over the records before r.
func (s *funcSums) at(r int) metering.Tally {
	if s.recs == nil {
		return s.cum[r]
	}
	i, _ := slices.BinarySearch(s.recs, int32(r))
	return s.cum[i]
}

// total returns the function's work over every record.
func (s *funcSums) total() metering.Tally { return s.cum[len(s.cum)-1] }

// merge replays a delta into the result: its sums, and its databases'
// reader lanes resolved in res.dbs, are credited to len(res.Workers)
// workers by credit. The delta may belong to a checkpoint or to the
// serving cache and be replayed into many results at once, so it is
// read-only from here on. A delta whose scans are not the set's databases
// is an error.
func (res *Result) merge(d *chainDelta) error {
	var buf [maxScans]*readerLane
	lanes, err := res.dbs.appendLanes(buf[:0], d)
	if err != nil {
		return err
	}
	res.PerChain = append(res.PerChain, d.cr)
	res.deltas = append(res.deltas, d)
	res.TotalHitResidues += d.cr.HitResidues
	d.credit(res.Workers, lanes)
	for name, b := range d.streamed {
		res.Streamed[name] += b
	}
	res.SerialInstructions += d.serial
	return nil
}

// Checkpoint preserves completed per-chain search deltas across retries
// of an MSA phase, so a retried stage re-runs only the chains that had
// not finished when the previous attempt faulted — the rest replay
// verbatim, streamed bytes, metering sums and all. Entries are scoped
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
