package serve

import (
	"context"
	"testing"
	"time"

	"afsysbench/internal/cache"
)

// benchTrace drains one trace through a fresh server over the shared suite
// and returns it for inspection.
func benchTrace(b *testing.B, cfg Config, trace []string) *Server {
	b.Helper()
	s := NewWithSuite(sharedSuite, cfg)
	s.Start()
	for _, sample := range trace {
		if _, err := s.Submit(Request{Sample: sample}); err != nil {
			b.Fatalf("submit %s: %v", sample, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		b.Fatalf("WaitIdle: %v", err)
	}
	s.Stop()
	return s
}

// BenchmarkCacheHit measures serving a request whose MSA phase is already
// cached: the hit path plus the inference stage.
func BenchmarkCacheHit(b *testing.B) {
	s := NewWithSuite(sharedSuite, Config{Threads: 4, MSAWorkers: 1, Cache: cache.New(0)})
	s.Start()
	defer s.Stop()
	ctx := context.Background()
	// Warm the cache with the first sighting.
	if _, err := s.Submit(Request{Sample: "1YY9"}); err != nil {
		b.Fatal(err)
	}
	if err := s.WaitIdle(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(Request{Sample: "1YY9"}); err != nil {
			b.Fatal(err)
		}
		if err := s.WaitIdle(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.Config().Cache.Stats()
	// Chain-keyed cache: every repeat request serves its three chains.
	if int(st.Hits+st.Shared) != 3*b.N {
		b.Fatalf("expected %d chain hits, got %+v", 3*b.N, st)
	}
}

// BenchmarkCacheMiss measures the same request when every sighting is a
// first sighting: a fresh cache per iteration, so the full MSA search is
// paid each time. The hit/miss ratio of these two benchmarks is the
// per-request value of the cache.
func BenchmarkCacheMiss(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchTrace(b, Config{Threads: 4, MSAWorkers: 1, Cache: cache.New(0)}, []string{"1YY9"})
		if st := s.Config().Cache.Stats(); st.Misses != 3 {
			b.Fatalf("expected 3 chain misses, got %+v", st)
		}
	}
}

// BenchmarkPhaseSplitVsSerial runs a repeat-heavy trace through the
// scheduler and reports the modeled phase-split and serial makespans as
// custom metrics alongside the real wall time per trace.
func BenchmarkPhaseSplitVsSerial(b *testing.B) {
	trace := []string{"promo", "1YY9", "1YY9", "promo", "1YY9", "1YY9"}
	var split, serial float64
	for i := 0; i < b.N; i++ {
		s := benchTrace(b, Config{Threads: 4, MSAWorkers: 2, Cache: cache.New(0)}, trace)
		sched := s.ModeledSchedule(2, 1)
		split = sched.Makespan
		serial = s.SerialMakespan()
		if split >= serial {
			b.Fatalf("phase-split makespan %.1fs not better than serial %.1fs", split, serial)
		}
	}
	b.ReportMetric(split, "modeled-split-s")
	b.ReportMetric(serial, "modeled-serial-s")
	b.ReportMetric(serial/split, "modeled-speedup")
}
