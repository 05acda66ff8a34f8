package core

import (
	"testing"

	"afsysbench/internal/cache"
	"afsysbench/internal/msa"
	"afsysbench/internal/simgpu"
)

// The compiled-artifact memo must stay bounded under a diverse trace
// (long-lived server, many distinct token counts) and recompute evicted
// entries identically — eviction costs time, never correctness. A private
// suite (no databases — XLAArtifacts never touches them) keeps the shared
// test suite's memo and counters untouched.
func TestXLACacheBoundedLRU(t *testing.T) {
	s := &Suite{
		Model:    simgpu.DefaultModel(),
		msaCache: make(map[string]*msa.Result),
		xla:      cache.New(2),
	}
	stats := func() (entries int, evictions uint64) {
		st := s.xla.Stats()
		return st.Entries, st.Evictions
	}

	first, _, err := s.XLAArtifacts(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{120, 140} {
		if _, _, err := s.XLAArtifacts(n); err != nil {
			t.Fatal(err)
		}
	}
	entries, evictions := stats()
	if entries != 2 {
		t.Errorf("entries = %d, want cap 2", entries)
	}
	if evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	// 100 was the LRU victim; re-requesting it recomputes the same stats
	// and evicts the next-oldest (120).
	again, _, err := s.XLAArtifacts(100)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("recomputed artifacts differ from the evicted originals")
	}
	if _, evictions = stats(); evictions != 2 {
		t.Errorf("evictions after refetch = %d, want 2", evictions)
	}
	// A hit refreshes recency: touching 140 then inserting 160 must evict
	// 100 (now oldest), keeping 140 resident.
	if _, _, err := s.XLAArtifacts(140); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.XLAArtifacts(160); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.XLAArtifacts(140); err != nil {
		t.Fatal(err)
	}
	entries, evictions = stats()
	if entries != 2 || evictions != 3 {
		t.Errorf("after touch+insert: entries=%d evictions=%d, want 2,3", entries, evictions)
	}
}
