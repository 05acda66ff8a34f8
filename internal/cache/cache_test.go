package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestKeyStableAndBoundaryProof(t *testing.T) {
	if Key("a", "b") != Key("a", "b") {
		t.Fatal("Key not deterministic")
	}
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal("Key collides across component boundaries")
	}
	if Key("a") == Key("a", "") {
		t.Fatal("Key ignores empty trailing component")
	}
}

func TestGetOrComputeBasics(t *testing.T) {
	c := New(0)
	calls := 0
	compute := func() (any, int64, error) { calls++; return 42, 8, nil }

	v, hit, err := c.GetOrCompute("k", compute)
	if err != nil || hit || v.(int) != 42 {
		t.Fatalf("first call: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.GetOrCompute("k", compute)
	if err != nil || !hit || v.(int) != 42 {
		t.Fatalf("second call: v=%v hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(0)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.GetOrCompute("k", func() (any, int64, error) { calls++; return nil, 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Contains("k") || c.Len() != 0 {
		t.Fatal("error result was cached")
	}
	v, hit, err := c.GetOrCompute("k", func() (any, int64, error) { calls++; return "ok", 2, nil })
	if err != nil || hit || v.(string) != "ok" {
		t.Fatalf("retry: v=%v hit=%v err=%v", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

func TestNilCacheComputesEveryTime(t *testing.T) {
	var c *Cache
	calls := 0
	for i := 0; i < 3; i++ {
		v, hit, err := c.GetOrCompute("k", func() (any, int64, error) { calls++; return calls, 1, nil })
		if err != nil || hit {
			t.Fatalf("nil cache: hit=%v err=%v", hit, err)
		}
		if v.(int) != i+1 {
			t.Fatalf("nil cache reused a value: %v", v)
		}
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

// TestSingleflightDedup launches many goroutines for the same key while
// the leader's computation is gated open; exactly one compute must run and
// everyone else must be served without computing. Whether a given waiter
// is counted as a flight share or a stored hit depends on whether it
// arrived before or after the leader finished — both are served results —
// so the assertion is on the dedup invariant, not the split.
func TestSingleflightDedup(t *testing.T) {
	c := New(0)
	const waiters = 32
	var computes atomic.Int32
	gate := make(chan struct{})
	entered := make(chan struct{})

	var wg sync.WaitGroup
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = c.GetOrCompute("k", func() (any, int64, error) {
			computes.Add(1)
			close(entered)
			<-gate
			return "value", 4, nil
		})
	}()
	<-entered // the flight is registered once compute is running

	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.GetOrCompute("k", func() (any, int64, error) {
				computes.Add(1)
				return "value", 4, nil
			})
			if err != nil {
				errs <- err
				return
			}
			if !hit || v.(string) != "value" {
				errs <- fmt.Errorf("follower got v=%v hit=%v", v, hit)
			}
		}()
	}
	close(gate)
	wg.Wait()
	<-leaderDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Shared != uint64(waiters) {
		t.Fatalf("stats = %+v, want 1 miss and %d served", st, waiters)
	}
}

// TestSingleflightSharedPath pins the follower path deterministically: a
// flight is registered by hand, a follower blocks on it, and resolving the
// flight must serve the follower without running its compute.
func TestSingleflightSharedPath(t *testing.T) {
	c := New(0)
	f := &flight{done: make(chan struct{})}
	c.mu.Lock()
	c.flights["k"] = f
	c.mu.Unlock()

	type outcome struct {
		v   any
		hit bool
		err error
	}
	res := make(chan outcome, 1)
	go func() {
		v, hit, err := c.GetOrCompute("k", func() (any, int64, error) {
			return nil, 0, errors.New("follower must not compute")
		})
		res <- outcome{v, hit, err}
	}()
	// The flight stays registered until after the follower returns, so the
	// follower either blocks on it or finds it already resolved — it can
	// never become a second leader.
	f.val = "value"
	close(f.done)
	got := <-res
	if got.err != nil || !got.hit || got.v.(string) != "value" {
		t.Fatalf("follower outcome = %+v", got)
	}
	if st := c.Stats(); st.Shared != 1 {
		t.Fatalf("stats = %+v, want 1 shared", st)
	}
	c.mu.Lock()
	delete(c.flights, "k")
	c.mu.Unlock()
}

// TestLRUEvictionOrder checks both the recency ordering (a touched entry
// survives) and the eviction counter.
func TestLRUEvictionOrder(t *testing.T) {
	c := New(20)
	c.Add("a", "a", 10)
	c.Add("b", "b", 10)
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Add("c", "c", 10) // over capacity: b must go, not a
	if c.Contains("b") {
		t.Fatal("b survived eviction despite being LRU")
	}
	if !c.Contains("a") || !c.Contains("c") {
		t.Fatal("wrong eviction victim")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 20 {
		t.Fatalf("stats = %+v", st)
	}

	// Insertion order is recency order when nothing is touched.
	c2 := New(20)
	c2.Add("x", 1, 10)
	c2.Add("y", 2, 10)
	c2.Add("z", 3, 10)
	if c2.Contains("x") || !c2.Contains("y") || !c2.Contains("z") {
		t.Fatal("oldest entry was not evicted first")
	}
}

func TestCapacityAccounting(t *testing.T) {
	c := New(100)
	c.Add("a", "a", 30)
	c.Add("b", "b", 30)
	if c.Bytes() != 60 {
		t.Fatalf("bytes = %d, want 60", c.Bytes())
	}
	c.Add("a", "a2", 50) // replace: bytes adjust, no duplicate entry
	if c.Bytes() != 80 || c.Len() != 2 {
		t.Fatalf("after replace: bytes=%d len=%d", c.Bytes(), c.Len())
	}
	// An entry larger than the whole capacity is uncacheable.
	c.Add("huge", "h", 1000)
	if c.Contains("huge") {
		t.Fatal("oversized entry stored")
	}
	if c.Bytes() > 100 {
		t.Fatalf("capacity invariant broken: %d", c.Bytes())
	}
	// Minimum charge is 1 byte so zero-sized entries still count.
	c3 := New(0)
	c3.Add("z", nil, 0)
	if c3.Bytes() != 1 {
		t.Fatalf("zero-size charge = %d, want 1", c3.Bytes())
	}
}

// TestConcurrentHammer drives mixed keys from many goroutines under -race
// and checks the terminal invariants: capacity held, every lookup
// accounted, values never torn.
func TestConcurrentHammer(t *testing.T) {
	c := New(64)
	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (g+i)%8)
				v, _, err := c.GetOrCompute(key, func() (any, int64, error) {
					return key, 16, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v.(string) != key {
					t.Errorf("key %s got value %v", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 64 {
		t.Fatalf("capacity exceeded: %+v", st)
	}
	if total := st.Hits + st.Misses + st.Shared; total != goroutines*iters {
		t.Fatalf("lookup accounting: hits+misses+shared=%d, want %d (%+v)", total, goroutines*iters, st)
	}
}

func TestHitRate(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty stats hit rate")
	}
	s := Stats{Hits: 8, Shared: 1, Misses: 1}
	if got := s.HitRate(); got != 0.9 {
		t.Fatalf("hit rate = %v, want 0.9", got)
	}
}

func TestOnEvictHook(t *testing.T) {
	c := New(20)
	type ev struct {
		key  string
		size int64
	}
	var got []ev
	c.SetOnEvict(func(key string, val any, size int64) {
		got = append(got, ev{key, size})
		// Reentrancy: the hook runs outside the lock, so calling back into
		// the cache must not deadlock.
		_ = c.Len()
	})
	c.Add("a", "A", 10)
	c.Add("b", "B", 10)
	if len(got) != 0 {
		t.Fatalf("premature evictions: %v", got)
	}
	c.Add("c", "C", 10) // evicts a (LRU)
	c.Add("d", "D", 20) // evicts b then c
	want := []ev{{"a", 10}, {"b", 10}, {"c", 10}}
	if len(got) != len(want) {
		t.Fatalf("evictions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("eviction %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOnEvictNotFiredOnReplace(t *testing.T) {
	c := New(100)
	fired := 0
	c.SetOnEvict(func(string, any, int64) { fired++ })
	c.Add("k", 1, 10)
	c.Add("k", 2, 20)
	if fired != 0 {
		t.Fatalf("replacement fired the eviction hook %d times", fired)
	}
	if v, ok := c.Get("k"); !ok || v.(int) != 2 {
		t.Fatalf("replacement lost: v=%v ok=%v", v, ok)
	}
}

func TestOnEvictFromGetOrCompute(t *testing.T) {
	c := New(10)
	var evicted []string
	c.SetOnEvict(func(key string, val any, size int64) { evicted = append(evicted, key) })
	if _, _, err := c.GetOrCompute("x", func() (any, int64, error) { return "X", 10, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrCompute("y", func() (any, int64, error) { return "Y", 10, nil }); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "x" {
		t.Fatalf("evicted = %v, want [x]", evicted)
	}
}

// An entry whose eviction hook is still running (the serving layer's disk
// spill) is in neither tier yet: a lookup in that window must be served
// the evicted value, not recompute it.
func TestEvictedEntryServedUntilHookReturns(t *testing.T) {
	c := New(10)
	inHook, release := make(chan struct{}), make(chan struct{})
	c.SetOnEvict(func(string, any, int64) {
		close(inHook)
		<-release
	})
	c.Add("a", "A", 10)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Add("b", "B", 10) // evicts a; the hook blocks
	}()
	<-inHook
	compute := func() (any, int64, error) {
		t.Error("recomputed an entry whose spill was in flight")
		return "A", 10, nil
	}
	if v, hit, err := c.GetOrCompute("a", compute); err != nil || !hit || v.(string) != "A" {
		t.Fatalf("GetOrCompute during the hook: v=%v hit=%v err=%v, want A from the evicted entry", v, hit, err)
	}
	if v, ok := c.Get("a"); !ok || v.(string) != "A" {
		t.Fatalf("Get during the hook: v=%v ok=%v", v, ok)
	}
	if c.Contains("a") || c.Len() != 1 || c.Bytes() != 10 {
		t.Fatalf("evicted entry still counted as stored: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	close(release)
	<-done
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted entry outlived its hook")
	}
}

func TestEntrySize(t *testing.T) {
	c := New(0)
	c.Add("k", "v", 37)
	if sz, ok := c.EntrySize("k"); !ok || sz != 37 {
		t.Fatalf("EntrySize(k) = %d,%v want 37,true", sz, ok)
	}
	if _, ok := c.EntrySize("missing"); ok {
		t.Fatal("EntrySize reported a missing key")
	}
	st := c.Stats()
	if st.Hits != 0 && st.Misses != 0 {
		t.Fatalf("EntrySize touched counters: %+v", st)
	}
	var nilCache *Cache
	if _, ok := nilCache.EntrySize("k"); ok {
		t.Fatal("nil cache reported an entry")
	}
}

func TestRangeMRUOrderAndEarlyStop(t *testing.T) {
	c := New(0)
	c.Add("a", 1, 1)
	c.Add("b", 2, 2)
	c.Add("c", 3, 3)
	c.Get("a") // a becomes MRU
	var keys []string
	c.Range(func(key string, val any, size int64) bool {
		keys = append(keys, key)
		return true
	})
	if fmt.Sprint(keys) != "[a c b]" {
		t.Fatalf("Range order = %v, want [a c b]", keys)
	}
	n := 0
	c.Range(func(string, any, int64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range ignored early stop: %d calls", n)
	}
	var nilCache *Cache
	nilCache.Range(func(string, any, int64) bool { t.Fatal("nil cache ranged"); return false })
}
