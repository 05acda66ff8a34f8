package scenario

import (
	"path/filepath"
	"testing"

	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
	"afsysbench/internal/qos"
	"afsysbench/internal/serve"
)

// TestCollectCacheless: a cache-less server scrapes to zero cache counters
// (through the nil-safe cache.Stats), no disk block, and the modeled
// makespans of its own pool sizes.
func TestCollectCacheless(t *testing.T) {
	s := serve.NewWithSuite(sharedSuite, serve.Config{Threads: 2, MSAWorkers: 2, GPUWorkers: 1})
	s.Start()
	st := ClosedLoop(InProc{S: s}, []string{"2PV7", "2PV7", "7RCE"}, 2, 2)
	s.Stop()
	Collect(s, &st, 0, 0)
	if st.Completed != 3 || st.Cache != (cache.Stats{}) || st.CacheHitRate != 0 || st.ChainFresh != 0 || st.Disk != nil {
		t.Fatalf("cache-less scrape: %+v", st)
	}
	if st.Routing == nil || st.Routing.Shed != 0 {
		t.Fatalf("routing: %+v", st.Routing)
	}
	want := s.ModeledSchedule(2, 1).Makespan
	if st.ModeledMakespan != want || st.ModeledSerial != s.SerialMakespan() || st.ModeledSpeedup != st.ModeledSerial/want {
		t.Fatalf("modeled: %+v, want makespan %v", st, want)
	}
	if st.Batch != nil || st.Fairness != nil {
		t.Fatalf("batch/fairness reports on a plain server: %+v %+v", st.Batch, st.Fairness)
	}
	if st.Latency.Count != 3 {
		t.Fatalf("client-side latency block overwritten: %+v", st.Latency)
	}
}

// TestCollectTwoTier: over a warmed disk tier the scrape carries the
// chain-tier split, both hit rates and the store's own counters.
func TestCollectTwoTier(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tier")
	trace := []string{"2PV7", "2PV7", "7RCE"}
	pass := func(spill bool) serve.LoadStats {
		disk, err := cachedisk.Open(cachedisk.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer disk.Close()
		s := serve.NewWithSuite(sharedSuite, serve.Config{Threads: 2, MSAWorkers: 1, GPUWorkers: 1, Cache: cache.New(0), DiskCache: disk})
		s.Start()
		st := ClosedLoop(InProc{S: s}, trace, 1, 2)
		if spill {
			s.SpillCache()
		}
		s.Stop()
		Collect(s, &st, 0, 0)
		return st
	}
	warm := pass(true)
	if warm.ChainFresh != 2 || warm.ChainMemHits != 1 || warm.ChainDiskHits != 0 || warm.Disk == nil || warm.Disk.Puts == 0 {
		t.Fatalf("warm pass: %+v (disk %+v)", warm, warm.Disk)
	}
	cold := pass(false)
	if cold.ChainFresh != 0 || cold.ChainDiskHits != 2 || cold.ChainMemHits != 1 {
		t.Fatalf("cold-memory pass chains: %+v", cold)
	}
	if cold.DiskHitRate != 2.0/3 || cold.MemHitRate != 1.0/3 || cold.Disk == nil || cold.Disk.Hits != 2 {
		t.Fatalf("cold-memory pass rates: %+v (disk %+v)", cold, cold.Disk)
	}
	if cold.CacheHitRate != cold.Cache.HitRate() || cold.Cache.Hits+cold.Cache.Misses == 0 {
		t.Fatalf("memory-tier stats: %+v", cold.Cache)
	}
}

// TestCollectOpenLoopLatency: with QoS on, the fairness report rides along
// and its pooled modeled latency — real percentiles over every completed
// request — becomes the headline block.
func TestCollectOpenLoopLatency(t *testing.T) {
	tenants, err := ParseTenants("a:w=2,n=6,rps=1;b:n=4,rps=2,shape=bursty", "2PV7:1,7RCE:1")
	if err != nil {
		t.Fatal(err)
	}
	events, err := Events(tenants, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.NewWithSuite(sharedSuite, serve.Config{
		Threads: 2, MSAWorkers: 2, GPUWorkers: 1,
		QoS: qos.NewController(qos.Config{Tenants: Quotas(tenants)}),
	})
	st, err := OpenLoop(s, events, 2)
	if err != nil {
		t.Fatal(err)
	}
	Collect(s, &st, 4, 2)
	rep := st.Fairness
	if rep == nil || rep.ModeledCPULanes != 4 || rep.ModeledGPULanes != 2 || len(rep.Latencies) != 2 {
		t.Fatalf("fairness report: %+v", rep)
	}
	if st.Latency != rep.Overall || rep.Overall.Count != st.Completed || st.Completed != 10 {
		t.Fatalf("headline latency %+v, overall %+v, completed %d", st.Latency, rep.Overall, st.Completed)
	}
	// Pooled percentiles bracket the per-tenant ones: the overall maximum is
	// the larger tenant maximum, the overall p50 lies between the tenants'.
	a, b := rep.TenantRow("a").Latency, rep.TenantRow("b").Latency
	if rep.Overall.MaxMs != max(a.MaxMs, b.MaxMs) || rep.Overall.P50Ms < min(a.P50Ms, b.P50Ms) || rep.Overall.P50Ms > max(a.P50Ms, b.P50Ms) {
		t.Fatalf("overall %+v does not pool a %+v and b %+v", rep.Overall, a, b)
	}
}
