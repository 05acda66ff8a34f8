package qos

import "sync"

// WFQ is a weighted-fair queue over per-tenant FIFO sub-queues, scheduled
// by deficit round-robin (DRR): each backlogged tenant is visited in
// first-backlog order, earns quantum × weight deficit credit per visit,
// and dequeues head items while its deficit covers their cost. Over time
// each tenant's dequeued token share converges to its weight share
// regardless of how many (or how large) items the others pile up — the
// property the starvation regression test pins.
//
// Determinism: every state transition happens under the queue mutex, and
// the dispatch sequence number is allocated inside Pop under that same
// lock — so for a fixed push history (e.g. an open-loop trace pushed
// before any Pop), the (item, sequence) pairing is a pure function of the
// pushes, independent of how many consumer goroutines race on Pop.
//
// Invariants (fuzzed in fuzz_test.go): a tenant's deficit never goes
// negative, every pushed item is popped exactly once (conservation of
// admitted work), and per-tenant FIFO order is preserved.
type WFQ[T any] struct {
	mu       sync.Mutex
	cond     *sync.Cond
	quantum  float64
	weightOf func(tenant string) float64

	queues map[string]*wfqQueue[T]
	active []string // backlogged tenants in first-backlog order
	cursor int      // DRR position in active
	size   int
	seq    int
	closed bool
}

type wfqQueue[T any] struct {
	weight  float64
	deficit float64
	// granted marks that the current DRR visit already earned its quantum;
	// it resets when the scheduler moves past the tenant or its queue
	// empties, so credit is earned exactly once per visit.
	granted bool
	backlog bool // tenant present in active
	items   []wfqEntry[T]
}

type wfqEntry[T any] struct {
	cost float64
	v    T
}

// NewWFQ builds a queue with the given base quantum (tokens of credit per
// unit weight per DRR visit; <= 0 defaults to 256, roughly one small
// request) and a weight lookup for tenants (nil or non-positive results
// default to weight 1).
func NewWFQ[T any](quantum float64, weightOf func(tenant string) float64) *WFQ[T] {
	if quantum <= 0 {
		quantum = 256
	}
	w := &WFQ[T]{
		quantum:  quantum,
		weightOf: weightOf,
		queues:   make(map[string]*wfqQueue[T]),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Push enqueues one item for a tenant at the given cost (clamped to a
// minimum of 1 so zero-cost items cannot stall DRR). Pushing after Close
// is a no-op returning false.
func (w *WFQ[T]) Push(tenant string, cost float64, v T) bool {
	if cost < 1 {
		cost = 1
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	q := w.queues[tenant]
	if q == nil {
		weight := 1.0
		if w.weightOf != nil {
			if wt := w.weightOf(tenant); wt > 0 {
				weight = wt
			}
		}
		q = &wfqQueue[T]{weight: weight}
		w.queues[tenant] = q
	}
	if !q.backlog {
		q.backlog = true
		w.active = append(w.active, tenant)
	}
	q.items = append(q.items, wfqEntry[T]{cost: cost, v: v})
	w.size++
	w.cond.Signal()
	return true
}

// Pop blocks until an item is available (or the queue is closed and
// drained) and returns it with its dispatch sequence number. After Close,
// remaining items still drain in DRR order; only then does Pop return
// ok == false.
func (w *WFQ[T]) Pop() (v T, seq int, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.size == 0 {
		if w.closed {
			var zero T
			return zero, 0, false
		}
		w.cond.Wait()
	}
	for {
		if w.cursor >= len(w.active) {
			w.cursor = 0
		}
		q := w.queues[w.active[w.cursor]]
		if !q.granted {
			q.deficit += w.quantum * q.weight
			q.granted = true
		}
		if q.deficit >= q.items[0].cost {
			e := q.items[0]
			q.items = q.items[1:]
			q.deficit -= e.cost
			w.size--
			if len(q.items) == 0 {
				// Standard DRR: an emptied queue forfeits its deficit so
				// idle tenants cannot hoard credit for a later burst.
				q.deficit = 0
				q.granted = false
				q.backlog = false
				w.active = append(w.active[:w.cursor], w.active[w.cursor+1:]...)
			}
			s := w.seq
			w.seq++
			return e.v, s, true
		}
		// Head unaffordable: end this tenant's visit and move on. Each
		// revisit earns another quantum, so every head becomes affordable
		// within ceil(cost/(quantum×weight)) rounds — the loop terminates.
		q.granted = false
		w.cursor++
	}
}

// Close wakes every blocked Pop. Items already queued still drain.
func (w *WFQ[T]) Close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
}

// Len returns the number of queued items across all tenants.
func (w *WFQ[T]) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}
