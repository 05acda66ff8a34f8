// Package cache is the content-addressed result cache behind the serving
// subsystem: bounded-capacity storage with LRU eviction, singleflight
// deduplication of concurrent identical computations, and hit/miss/
// eviction/byte accounting.
//
// The motivating workload is the MSA phase of high-throughput structure
// prediction: screening campaigns submit the same query sequences against
// the same database sets over and over, and the search — minutes of CPU
// and terabytes of streaming per request at paper scale — is pure function
// of (query, database set, search parameters). AF_Cache (PAPERS.md) shows
// the hit rates such workloads reach; this package supplies the mechanism.
// Keys are derived by the caller from the full content that determines the
// result (see cache.Key), so a stale or cross-configuration hit is
// impossible by construction rather than by invalidation protocol.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// Key derives a stable content-addressed key from the given components.
// Components are length-prefixed before hashing so ("ab","c") and
// ("a","bc") never collide. Callers pass everything that determines the
// cached value: query content, database-set fingerprint, thread count,
// search parameters, machine identity.
func Key(parts ...string) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits served a stored entry; Shared served a computation already in
	// flight (singleflight followers); Misses paid the computation.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Shared uint64 `json:"shared"`
	// Evictions counts entries removed to fit the capacity.
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	// Bytes is the summed size of stored entries (caller-declared sizes,
	// e.g. modeled feature-tensor bytes); CapacityBytes is the bound
	// (0 = unbounded).
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
}

// HitRate is the fraction of lookups served without recomputing (stored
// hits plus singleflight shares), in [0,1].
func (s Stats) HitRate() float64 {
	served := s.Hits + s.Shared
	total := served + s.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// Cache is a bounded LRU cache with singleflight computation. A nil *Cache
// is valid and means "caching disabled": GetOrCompute always computes and
// nothing is recorded, so call sites stay unconditional.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	flights  map[string]*flight
	onEvict  func(key string, val any, size int64)
	// leaving holds entries evicted from the LRU whose OnEvict hook has not
	// returned yet. Lookups still find them, so the window between an
	// eviction and the end of its spill never reads as a miss — without it
	// a request arriving in that window finds the value in neither tier
	// and recomputes it, and how often depends on the disk's latency.
	leaving map[string]*entry

	hits, misses, shared, evictions uint64
}

type entry struct {
	key  string
	val  any
	size int64
}

// flight is one in-progress computation; followers block on done and read
// val/err afterwards (the channel close is the happens-before edge).
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New builds a cache bounded to capacityBytes of caller-declared entry
// sizes. capacityBytes <= 0 means unbounded.
func New(capacityBytes int64) *Cache {
	return &Cache{
		capacity: capacityBytes,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		flights:  make(map[string]*flight),
		leaving:  make(map[string]*entry),
	}
}

// SetOnEvict installs a callback invoked for every entry removed by LRU
// pressure (not for replacements of the same key). The callback runs after
// the cache lock is released — it may do I/O or call back into the cache —
// but eviction order is preserved, and until it returns Get and
// GetOrCompute still serve the evicted entry as a hit. Used by the serving
// layer to spill evicted MSA chains to the persistent disk tier.
func (c *Cache) SetOnEvict(fn func(key string, val any, size int64)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// Get returns the stored value for key, marking it most recently used.
// It records a hit or miss.
func (c *Cache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.lookupLocked(key)
	if !ok {
		c.misses++
	}
	return v, ok
}

// lookupLocked serves key from the LRU (marking it most recently used) or
// from the entries still on their way out, and counts the hit.
func (c *Cache) lookupLocked(key string) (any, bool) {
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*entry).val, true
	}
	if e, ok := c.leaving[key]; ok {
		c.hits++
		return e.val, true
	}
	return nil, false
}

// Contains reports whether key is stored, without touching recency or
// counters (test and introspection helper).
func (c *Cache) Contains(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// GetOrCompute returns the value for key, computing it at most once across
// concurrent callers. compute returns the value, its charged size in
// bytes, and an error; errors are returned to every waiter and never
// cached, so the next request retries. The hit result is true when the
// value was served without running compute in this call (stored entry or a
// computation another caller already had in flight).
func (c *Cache) GetOrCompute(key string, compute func() (any, int64, error)) (val any, hit bool, err error) {
	if c == nil {
		v, _, err := compute()
		return v, false, err
	}
	c.mu.Lock()
	if v, ok := c.lookupLocked(key); ok {
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		c.mu.Lock()
		c.shared++
		c.mu.Unlock()
		return f.val, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()

	v, size, err := compute()
	f.val, f.err = v, err
	c.mu.Lock()
	delete(c.flights, key)
	var evicted []*entry
	if err == nil {
		evicted = c.insertLocked(key, v, size)
	}
	hook := c.onEvict
	c.mu.Unlock()
	close(f.done)
	c.notifyEvicted(hook, evicted)
	if err != nil {
		return nil, false, err
	}
	return v, false, nil
}

// Add stores a value directly (no singleflight), replacing any existing
// entry for key and evicting from the LRU end to fit capacity.
func (c *Cache) Add(key string, val any, size int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	evicted := c.insertLocked(key, val, size)
	hook := c.onEvict
	c.mu.Unlock()
	c.notifyEvicted(hook, evicted)
}

// insertLocked stores (or replaces) an entry at the MRU position and
// evicts from the LRU end until the capacity holds. An entry larger than
// the whole capacity is evicted immediately (uncacheable), keeping the
// bytes bound a hard invariant. Evicted entries are returned so the caller
// can run the OnEvict hook outside the lock.
func (c *Cache) insertLocked(key string, val any, size int64) []*entry {
	if size < 1 {
		size = 1
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&entry{key: key, val: val, size: size})
		c.entries[key] = el
		c.bytes += size
	}
	if c.capacity <= 0 {
		return nil
	}
	var evicted []*entry
	for c.bytes > c.capacity && c.ll.Len() > 0 {
		el := c.ll.Back()
		e := el.Value.(*entry)
		c.ll.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evictions++
		evicted = append(evicted, e)
		if c.onEvict != nil {
			c.leaving[e.key] = e
		}
	}
	return evicted
}

// notifyEvicted runs the eviction hook for each removed entry, in eviction
// order, with no cache lock held, and lets go of each once its hook is done.
func (c *Cache) notifyEvicted(hook func(string, any, int64), evicted []*entry) {
	if hook == nil {
		return
	}
	for _, e := range evicted {
		hook(e.key, e.val, e.size)
		c.mu.Lock()
		if c.leaving[e.key] == e {
			delete(c.leaving, e.key)
		}
		c.mu.Unlock()
	}
}

// EntrySize returns the caller-declared byte size of the stored entry for
// key, without touching recency or counters.
func (c *Cache) EntrySize(key string) (int64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return 0, false
	}
	return el.Value.(*entry).size, true
}

// Range calls fn for every stored entry, most recently used first, until
// fn returns false. The snapshot is taken under the lock and fn runs
// outside it, so fn may call back into the cache; entries added or evicted
// after the snapshot are not reflected. Recency and counters are untouched.
func (c *Cache) Range(fn func(key string, val any, size int64) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	snap := make([]entry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		snap = append(snap, *el.Value.(*entry))
	}
	c.mu.Unlock()
	for i := range snap {
		if !fn(snap[i].key, snap[i].val, snap[i].size) {
			return
		}
	}
}

// Len returns the stored entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the summed size of stored entries.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of the counters. A nil cache reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Shared:        c.shared,
		Evictions:     c.evictions,
		Entries:       c.ll.Len(),
		Bytes:         c.bytes,
		CapacityBytes: c.capacity,
	}
}
