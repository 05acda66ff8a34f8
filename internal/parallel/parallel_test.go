package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers = %d, want 1", p.Workers())
	}
	calls := 0
	p.Run(10, func(shard, lo, hi int) {
		calls++
		if shard != 0 || lo != 0 || hi != 10 {
			t.Errorf("nil pool shard=%d [%d,%d), want single full span", shard, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("nil pool made %d calls, want 1", calls)
	}
	p.Close() // must be a no-op
}

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 16} {
		p := New(workers)
		for _, n := range []int{1, 2, 7, 64, 1000} {
			seen := make([]int32, n)
			p.Run(n, func(shard, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, c)
				}
			}
		}
		p.Close()
	}
}

func TestRunShardsAreContiguousAndOrdered(t *testing.T) {
	p := New(4)
	defer p.Close()
	var mu sync.Mutex
	spans := make(map[int][2]int)
	p.Run(10, func(shard, lo, hi int) {
		mu.Lock()
		spans[shard] = [2]int{lo, hi}
		mu.Unlock()
	})
	if len(spans) != 4 {
		t.Fatalf("got %d shards, want 4", len(spans))
	}
	next := 0
	for s := 0; s < len(spans); s++ {
		sp, ok := spans[s]
		if !ok {
			t.Fatalf("missing shard %d", s)
		}
		if sp[0] != next || sp[1] <= sp[0] {
			t.Fatalf("shard %d span %v not contiguous from %d", s, sp, next)
		}
		next = sp[1]
	}
	if next != 10 {
		t.Fatalf("shards end at %d, want 10", next)
	}
}

func TestRunShardCountNeverExceedsN(t *testing.T) {
	p := New(8)
	defer p.Close()
	var maxShard int32 = -1
	p.Run(3, func(shard, lo, hi int) {
		for {
			cur := atomic.LoadInt32(&maxShard)
			if int32(shard) <= cur || atomic.CompareAndSwapInt32(&maxShard, cur, int32(shard)) {
				return
			}
		}
	})
	if maxShard > 2 {
		t.Fatalf("max shard %d for n=3", maxShard)
	}
}

func TestNestedRunDoesNotDeadlock(t *testing.T) {
	p := New(2)
	defer p.Close()
	var total int64
	p.Run(4, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p.Run(8, func(_, lo2, hi2 int) {
				atomic.AddInt64(&total, int64(hi2-lo2))
			})
		}
	})
	if total != 4*8 {
		t.Fatalf("nested total = %d, want 32", total)
	}
}

func TestShardsMatchesFixedDecomposition(t *testing.T) {
	// Run's shards are Span's: msa re-cuts a scan along the exact
	// len*s/shards boundaries, whatever width the scan itself ran at.
	const n, shards = 17, 5
	p := New(shards)
	defer p.Close()
	got := make([][2]int, shards)
	var mu sync.Mutex
	p.Run(n, func(shard, lo, hi int) {
		mu.Lock()
		got[shard] = [2]int{lo, hi}
		mu.Unlock()
	})
	for s := 0; s < shards; s++ {
		wantLo, wantHi := n*s/shards, n*(s+1)/shards
		if got[s] != [2]int{wantLo, wantHi} {
			t.Errorf("shard %d = %v, want [%d,%d)", s, got[s], wantLo, wantHi)
		}
		if lo, hi := Span(n, s, shards); [2]int{lo, hi} != got[s] {
			t.Errorf("Span(%d, %d, %d) = [%d,%d), Run gave %v", n, s, shards, lo, hi, got[s])
		}
	}
}

func TestShardsSkipsEmptyAndHandlesZero(t *testing.T) {
	p := New(4)
	defer p.Close()
	var calls atomic.Int32
	p.Run(2, func(shard, lo, hi int) {
		if lo == hi {
			t.Errorf("empty shard %d delivered", shard)
		}
		calls.Add(1)
	})
	if calls.Load() != 2 {
		t.Fatalf("got %d calls for n=2 over 4 workers, want 2", calls.Load())
	}
	p.Run(0, func(shard, lo, hi int) { t.Error("n=0 must not call fn") })
}

func TestForWorkersCachesAndClamps(t *testing.T) {
	a := ForWorkers(3)
	b := ForWorkers(3)
	if a != b {
		t.Error("ForWorkers(3) not cached")
	}
	if ForWorkers(0).Workers() != 1 || ForWorkers(-2).Workers() != 1 {
		t.Error("non-positive worker counts must clamp to 1")
	}
	if ForWorkers(DefaultWorkers()).Workers() < 1 {
		t.Error("default pool has no workers")
	}
}

func TestRunDeterministicSumAnyWorkerCount(t *testing.T) {
	// A per-element kernel (out[i] = f(i) reduced within the element) must
	// be bitwise identical at every worker count.
	const n = 513
	ref := make([]float32, n)
	kernel := func(out []float32) func(shard, lo, hi int) {
		return func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				acc := float32(0)
				for k := 0; k < 37; k++ {
					acc += float32(i*k) * 1e-3
				}
				out[i] = acc
			}
		}
	}
	(*Pool)(nil).Run(n, kernel(ref))
	for _, workers := range []int{2, 3, 7} {
		p := New(workers)
		out := make([]float32, n)
		p.Run(n, kernel(out))
		p.Close()
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("workers=%d: element %d differs", workers, i)
			}
		}
	}
}
