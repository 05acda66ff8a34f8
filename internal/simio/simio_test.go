package simio

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"afsysbench/internal/platform"
)

const gib = int64(1) << 30

func TestColdReadThenCached(t *testing.T) {
	s := New(platform.Server(), 8*gib)
	r1 := s.ReadSequential("uniref", 40*gib)
	if r1.FromDisk != 40*gib || r1.FromCache != 0 {
		t.Fatalf("cold read: disk=%d cache=%d", r1.FromDisk, r1.FromCache)
	}
	if r1.DiskSeconds <= 0 {
		t.Error("cold read must cost disk time")
	}
	r2 := s.ReadSequential("uniref", 40*gib)
	if r2.FromDisk != 0 || r2.FromCache != 40*gib {
		t.Errorf("warm read: disk=%d cache=%d", r2.FromDisk, r2.FromCache)
	}
	if r2.DiskSeconds != 0 {
		t.Error("warm read must be free")
	}
}

func TestServerHoldsAllDatabases(t *testing.T) {
	// The paper's server: 512 GiB holds protein + RNA databases together.
	s := New(platform.Server(), 16*gib)
	s.ReadSequential("protein", 60*gib)
	s.ReadSequential("rna", 89*gib)
	r := s.ReadSequential("protein", 60*gib)
	if r.FromDisk != 0 {
		t.Errorf("server re-read protein went to disk for %d bytes", r.FromDisk)
	}
}

func TestDesktopEvictsUnderPressure(t *testing.T) {
	// 64 GiB desktop cannot keep 60+89 GiB resident: re-reads hit disk
	// (the paper's I/O-bound desktop behavior).
	s := New(platform.Desktop(), 8*gib)
	s.ReadSequential("protein", 60*gib)
	s.ReadSequential("rna", 89*gib)
	r := s.ReadSequential("protein", 60*gib)
	if r.FromDisk == 0 {
		t.Error("desktop re-read should hit disk after eviction")
	}
}

func TestSingleDatasetLargerThanCache(t *testing.T) {
	s := New(platform.Desktop(), 8*gib) // 56 GiB cache
	r1 := s.ReadSequential("rna", 89*gib)
	if r1.FromDisk != 89*gib {
		t.Error("first scan must stream everything")
	}
	r2 := s.ReadSequential("rna", 89*gib)
	if r2.FromDisk == 0 {
		t.Error("oversized dataset can never be fully cached")
	}
	if r2.FromCache == 0 {
		t.Error("a resident window should still serve part of the scan")
	}
}

func TestSetReservedEvicts(t *testing.T) {
	s := New(platform.Desktop(), 8*gib)
	s.ReadSequential("db", 40*gib)
	if s.resident["db"] != 40*gib {
		t.Fatalf("resident = %d", s.resident["db"])
	}
	// nhmmer balloons to 50 GiB: cache shrinks to 14 GiB.
	s.SetReserved(50 * gib)
	if s.resident["db"] > 14*gib {
		t.Errorf("resident after pressure = %d, want <= 14 GiB", s.resident["db"])
	}
}

func TestLRUVictimOrder(t *testing.T) {
	s := New(platform.Desktop(), 8*gib) // 56 GiB capacity
	s.ReadSequential("old", 30*gib)
	s.ReadSequential("new", 20*gib)
	// Admitting 20 more GiB must evict from "old" first.
	s.ReadSequential("third", 20*gib)
	if s.resident["new"] < s.resident["old"] {
		t.Errorf("LRU order violated: old=%d new=%d", s.resident["old"], s.resident["new"])
	}
}

func TestPreloadMakesLaterReadFree(t *testing.T) {
	s := New(platform.Server(), 8*gib)
	pr := s.Preload("rna", 89*gib)
	if pr.FromDisk != 89*gib {
		t.Error("preload must stream from disk")
	}
	r := s.ReadSequential("rna", 89*gib)
	if r.DiskSeconds != 0 {
		t.Error("post-preload read should be free")
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New(platform.Desktop(), 8*gib)
	s.ReadSequential("a", 10*gib)
	s.ReadSequential("b", 10*gib)
	st := s.Stats()
	if st.ReadBytes != 20*gib {
		t.Errorf("read bytes = %d", st.ReadBytes)
	}
	if st.BusySeconds <= 0 || st.Requests <= 0 {
		t.Error("busy seconds / requests not tracked")
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}
}

func TestUtilization(t *testing.T) {
	if got := UtilizationPct(5, 10); got != 50 {
		t.Errorf("util = %v", got)
	}
	if got := UtilizationPct(20, 10); got != 100 {
		t.Errorf("util must cap at 100, got %v", got)
	}
	if got := UtilizationPct(1, 0); got != 0 {
		t.Errorf("zero wall util = %v", got)
	}
}

func TestPaperScaleUtilContrast(t *testing.T) {
	// Server reading the 89 GiB RNA DB cold during a ~1000 s MSA phase:
	// util must stay low (paper: rarely exceeded 20%).
	srv := New(platform.Server(), 16*gib)
	r := srv.ReadSequential("rna", 89*gib)
	if u := UtilizationPct(r.DiskSeconds, 1000); u > 20 {
		t.Errorf("server util = %.1f%%, want < 20%%", u)
	}
	// Desktop re-streaming 140 GiB of evicted databases inside a ~25 s
	// window pegs the device.
	dsk := New(platform.Desktop(), 8*gib)
	dsk.ReadSequential("protein", 60*gib)
	dsk.ReadSequential("rna", 89*gib)
	rr := dsk.ReadSequential("protein", 60*gib)
	if u := UtilizationPct(rr.DiskSeconds, rr.DiskSeconds); u < 99 {
		t.Errorf("desktop peak util = %.1f%%, want ~100%%", u)
	}
}

func TestCacheCapacityFloor(t *testing.T) {
	s := New(platform.Desktop(), 200*gib) // reservation exceeds DRAM
	if s.CacheCapacity() != 0 {
		t.Error("capacity must floor at zero")
	}
	r := s.ReadSequential("db", gib)
	if r.FromDisk != gib {
		t.Error("with no cache everything reads from disk")
	}
	if s.resident["db"] != 0 {
		t.Error("nothing can be resident with zero capacity")
	}
}

func TestQuickResidencyNeverExceedsCapacity(t *testing.T) {
	f := func(sizesRaw []uint32) bool {
		s := New(platform.Desktop(), 8*gib)
		capacity := s.CacheCapacity()
		for i, raw := range sizesRaw {
			size := int64(raw%200) * gib / 4
			s.ReadSequential(fmt.Sprintf("db%d", i%5), size)
			var total int64
			for j := 0; j < 5; j++ {
				total += s.resident[fmt.Sprintf("db%d", j)]
			}
			if total > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWarmReadNeverSlowerThanCold(t *testing.T) {
	f := func(raw uint32) bool {
		size := int64(raw%100+1) * gib / 10
		s := New(platform.Server(), 8*gib)
		cold := s.ReadSequential("db", size)
		warm := s.ReadSequential("db", size)
		return warm.DiskSeconds <= cold.DiskSeconds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTryReadSequentialFaultHook(t *testing.T) {
	s := New(platform.Server(), 8*gib)
	var calls []int
	s.SetFaultFunc(func(name string, attempt int, bytes int64) error {
		calls = append(calls, attempt)
		if attempt <= 2 {
			return fmt.Errorf("injected failure %d on %s", attempt, name)
		}
		return nil
	})
	// Two failed attempts: no bytes stream, nothing becomes resident.
	for a := 1; a <= 2; a++ {
		r, err := s.TryReadSequential("db", gib)
		if err == nil {
			t.Fatalf("attempt %d: want error", a)
		}
		if r.DiskSeconds != 0 || r.Bytes != 0 {
			t.Errorf("attempt %d charged a failed read: %+v", a, r)
		}
	}
	if s.resident["db"] != 0 {
		t.Error("failed reads admitted bytes to the cache")
	}
	if got := s.Stats().FailedReads; got != 2 {
		t.Errorf("FailedReads = %d, want 2", got)
	}
	// Third attempt succeeds and behaves like a plain cold read.
	r, err := s.TryReadSequential("db", gib)
	if err != nil {
		t.Fatal(err)
	}
	if r.FromDisk != gib || r.DiskSeconds <= 0 {
		t.Errorf("successful read: %+v", r)
	}
	if len(calls) != 3 || calls[2] != 3 {
		t.Errorf("attempt numbering: %v", calls)
	}
	// Without a hook, TryReadSequential is ReadSequential.
	s.SetFaultFunc(nil)
	if _, err := s.TryReadSequential("db2", gib); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Stats().String(), "failed=2") {
		t.Errorf("stats string omits failures: %s", s.Stats().String())
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := New(platform.Desktop(), 8*gib)
	s.ReadSequential("a", 10*gib)
	s.ReadSequential("b", 4*gib)

	c := s.Clone()
	if c.Stats() != s.Stats() || c.resident["a"] != s.resident["a"] || c.Reserved() != s.Reserved() {
		t.Fatal("clone does not match source")
	}
	// Mutating the clone leaves the source untouched, and vice versa.
	c.ReadSequential("c", 20*gib)
	c.SetReserved(30 * gib)
	if s.resident["c"] != 0 || s.Reserved() != 8*gib {
		t.Error("clone mutation leaked into source")
	}
	before := c.Stats()
	s.ReadSequential("a", 10*gib)
	if c.Stats() != before {
		t.Error("source mutation leaked into clone")
	}
}
