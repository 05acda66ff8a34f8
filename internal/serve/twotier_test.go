package serve

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
	"afsysbench/internal/msa"
	"afsysbench/internal/resilience"
	"afsysbench/internal/rng"
)

func openDiskTier(t *testing.T, dir string, cfg cachedisk.Config) *cachedisk.Store {
	t.Helper()
	cfg.Dir = dir
	st, err := cachedisk.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestChainSharingAcrossComplexes is the point of chain-level keys: two
// different PPI complexes that share a pool protein reuse its MSA from
// the memory tier, which a request-keyed cache can never do.
func TestChainSharingAcrossComplexes(t *testing.T) {
	s := newTestServer(t, Config{Threads: 4, MSAWorkers: 1, Cache: cache.New(0)})
	statuses := runTrace(t, s, []string{"ppi-0x3", "ppi-3x7"})

	if statuses[0].ChainsFresh != 2 || statuses[0].ChainsMem != 0 {
		t.Fatalf("first pair chains = %+v, want 2 fresh", statuses[0])
	}
	// Pool protein 3 is shared; protein 7 is new.
	if statuses[1].ChainsMem != 1 || statuses[1].ChainsFresh != 1 {
		t.Fatalf("second pair chains = %+v, want 1 memory hit + 1 fresh", statuses[1])
	}
	if statuses[1].CacheHit {
		t.Fatal("partially cached request must not report a full hit")
	}
	// The shared chain's work is not charged: the partial request costs
	// strictly less than its fresh total but more than zero.
	res, ok := s.Result(statuses[1].ID)
	if !ok {
		t.Fatal("no result for second pair")
	}
	if statuses[1].MSASeconds <= 0 || statuses[1].MSASeconds >= res.MSASeconds {
		t.Fatalf("partial hit charged %v of fresh %v, want strictly between",
			statuses[1].MSASeconds, res.MSASeconds)
	}

	// The request-keyed baseline mode shares nothing across complexes.
	b := newTestServer(t, Config{Threads: 4, MSAWorkers: 1, Cache: cache.New(0), RequestScopedKeys: true})
	bst := runTrace(t, b, []string{"ppi-0x3", "ppi-3x7"})
	if bst[1].ChainsMem != 0 || bst[1].ChainsFresh != 2 {
		t.Fatalf("request-keyed baseline shared a chain: %+v", bst[1])
	}
}

// TestDiskTierReadThroughAcrossRestart spills the memory tier to disk,
// simulates a process restart (fresh store over the same directory,
// fresh memory cache), and checks that a repeat request is served from
// disk with a bitwise-identical result.
func TestDiskTierReadThroughAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := newTestServer(t, Config{
		Threads: 4, MSAWorkers: 1,
		Cache:     cache.New(0),
		DiskCache: openDiskTier(t, dir, cachedisk.Config{}),
	})
	st1 := runTrace(t, s1, []string{"1YY9"})
	want := fingerprint(t, s1, st1[0].ID)
	if n := s1.SpillCache(); n != 3 {
		t.Fatalf("SpillCache = %d, want 3 chains", n)
	}
	s1.Stop()

	// Restart: new store over the same directory, empty memory tier.
	s2 := newTestServer(t, Config{
		Threads: 4, MSAWorkers: 1,
		Cache:     cache.New(0),
		DiskCache: openDiskTier(t, dir, cachedisk.Config{}),
	})
	st2 := runTrace(t, s2, []string{"1YY9"})
	if st2[0].State != "done" {
		t.Fatalf("restart job: %+v", st2[0])
	}
	if st2[0].ChainsDisk != 3 || st2[0].ChainsFresh != 0 {
		t.Fatalf("restart chains = %+v, want 3 disk hits", st2[0])
	}
	if !st2[0].CacheHit || st2[0].MSASeconds != 0 {
		t.Fatalf("fully disk-served request must hit and charge 0: %+v", st2[0])
	}
	if got := fingerprint(t, s2, st2[0].ID); got != want {
		t.Fatalf("disk replay diverged:\n  want %s\n  got  %s", want, got)
	}
}

// TestDiskEntryOfAnotherCodecIsDropped: an entry the persistent tier holds
// under the previous codec id, 5 — a chain whose every record's
// seed_filter work sat in its sums — is dropped by diskLookup's codec
// check without being decoded, even when its payload would decode, and
// the chain is searched again.
func TestDiskEntryOfAnotherCodecIsDropped(t *testing.T) {
	s1 := newTestServer(t, Config{Threads: 4, MSAWorkers: 1, Cache: cache.New(0)})
	st1 := runTrace(t, s1, []string{"1YY9"})
	want := fingerprint(t, s1, st1[0].ID)
	disk := openDiskTier(t, t.TempDir(), cachedisk.Config{})
	var keys []string
	s1.cfg.Cache.Range(func(key string, val any, _ int64) bool {
		payload, err := val.(*msa.CachedChain).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := disk.Put(key, chainCodec-1, payload); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		return true
	})
	if len(keys) != 3 {
		t.Fatalf("%d chains cached, want 3", len(keys))
	}

	s2 := newTestServer(t, Config{Threads: 4, MSAWorkers: 1, Cache: cache.New(0), DiskCache: disk})
	st2 := runTrace(t, s2, []string{"1YY9"})
	if st2[0].ChainsDisk != 0 || st2[0].ChainsFresh != 3 {
		t.Fatalf("entries under codec %d were served: %+v", chainCodec-1, st2[0])
	}
	if got := fingerprint(t, s2, st2[0].ID); got != want {
		t.Fatalf("the recompute diverged:\n  want %s\n  got  %s", want, got)
	}
	for _, key := range keys {
		if disk.Has(key) {
			t.Errorf("entry %s under codec %d was kept", key, chainCodec-1)
		}
	}
	if n := s2.Metrics().Get("msa_chain_disk_decode_drops"); n != 0 {
		t.Errorf("%d entries under another codec were decoded", n)
	}
}

// TestDiskCorruptionIsAMiss corrupts every spilled entry on disk and
// checks that the server silently recomputes: same result, zero disk
// hits, corruption counted.
func TestDiskCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{
		Threads: 4, MSAWorkers: 1,
		Cache:     cache.New(0),
		DiskCache: openDiskTier(t, dir, cachedisk.Config{}),
	})
	st1 := runTrace(t, s1, []string{"1YY9"})
	want := fingerprint(t, s1, st1[0].ID)
	if s1.SpillCache() != 3 {
		t.Fatal("spill failed")
	}
	s1.Stop()

	// Flip one byte in every entry payload.
	ents, err := filepath.Glob(filepath.Join(dir, "objects", "*.ent"))
	if err != nil || len(ents) != 3 {
		t.Fatalf("expected 3 entries, got %d (%v)", len(ents), err)
	}
	for _, p := range ents {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1] ^= 0xFF
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newTestServer(t, Config{
		Threads: 4, MSAWorkers: 1,
		Cache:     cache.New(0),
		DiskCache: openDiskTier(t, dir, cachedisk.Config{}),
	})
	st2 := runTrace(t, s2, []string{"1YY9"})
	if st2[0].State != "done" {
		t.Fatalf("job over corrupt tier: %+v", st2[0])
	}
	if st2[0].ChainsDisk != 0 || st2[0].ChainsFresh != 3 {
		t.Fatalf("corrupt entries must read as misses: %+v", st2[0])
	}
	if got := fingerprint(t, s2, st2[0].ID); got != want {
		t.Fatalf("recompute over corrupt tier diverged:\n  want %s\n  got  %s", want, got)
	}
	ds := s2.Config().DiskCache.Stats()
	if ds.CorruptDropped == 0 {
		t.Fatalf("corruption not counted: %+v", ds)
	}
}

// TestSustainedDiskFailureDegradesToMemory runs the server over a disk
// that fails every operation: the store's breaker must open and the
// server must keep answering every request correctly from memory alone.
func TestSustainedDiskFailureDegradesToMemory(t *testing.T) {
	fs, err := resilience.ParseFaults("diskfault:*:100000")
	if err != nil {
		t.Fatal(err)
	}
	store := openDiskTier(t, t.TempDir(), cachedisk.Config{
		Injector:         resilience.NewInjector(fs, rng.New(7)),
		BreakerThreshold: 2,
	})
	s := newTestServer(t, Config{
		Threads: 4, MSAWorkers: 1,
		Cache:     cache.New(0),
		DiskCache: store,
	})
	statuses := runTrace(t, s, []string{"1YY9", "promo", "1YY9"})
	for _, st := range statuses {
		if st.State != "done" {
			t.Fatalf("request failed under dark disk: %+v", st)
		}
	}
	if !statuses[2].CacheHit {
		t.Fatal("memory tier must still serve repeats")
	}
	s.SpillCache() // must not panic or fail requests either
	if !store.Stats().Degraded {
		t.Fatalf("breaker never opened: %+v", store.Stats())
	}
	if ds := store.Stats(); ds.DegradedOps == 0 {
		t.Fatalf("degraded ops not counted: %+v", ds)
	}
}

// TestThreadCountsShareChains: a thread count only re-cuts a cached
// chain's events, so one chain serves every count. An interleaved PPI trace
// at 1, 2 and 4 threads searches each of its three pool chains once, and a
// chain one server spilled at 2 threads is a disk hit for another at 4.
// Every result equals the one a server at the request's thread count alone,
// with no cache, computes.
func TestThreadCountsShareChains(t *testing.T) {
	type req struct {
		sample  string
		threads int
	}
	trace := []req{
		{"ppi-0x1", 1}, {"ppi-0x1", 2}, {"ppi-1x2", 4}, {"ppi-0x2", 1},
		{"ppi-1x2", 2}, {"ppi-0x1", 4}, {"ppi-0x2", 2}, {"ppi-0x2", 4},
	}
	want := make(map[req]string)
	for _, threads := range []int{1, 2, 4} {
		s := newTestServer(t, Config{Threads: threads, MSAWorkers: 1})
		samples := []string{"ppi-0x1", "ppi-1x2", "ppi-0x2"}
		for i, js := range runTrace(t, s, samples) {
			want[req{samples[i], threads}] = fingerprint(t, s, js.ID)
		}
	}

	t.Run("memory", func(t *testing.T) {
		s := newTestServer(t, Config{Threads: 1, MSAWorkers: 2, Cache: cache.New(0)})
		s.Start()
		for _, r := range trace {
			if _, err := s.Submit(Request{Sample: r.sample, Threads: r.threads}); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := s.WaitIdle(ctx); err != nil {
			t.Fatal(err)
		}
		for i, js := range s.Statuses() {
			if js.State != "done" {
				t.Fatalf("request %d: %+v", i, js)
			}
			if got := fingerprint(t, s, js.ID); got != want[trace[i]] {
				t.Fatalf("%s at T%d:\n  want %s\n  got  %s", trace[i].sample, trace[i].threads, want[trace[i]], got)
			}
		}
		if got := s.Metrics().Get("msa_chain_misses"); got != 3 {
			t.Fatalf("msa_chain_misses = %d, want each of the 3 pool chains searched once", got)
		}
	})

	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		s2 := newTestServer(t, Config{Threads: 2, MSAWorkers: 1, Cache: cache.New(0), DiskCache: openDiskTier(t, dir, cachedisk.Config{})})
		runTrace(t, s2, []string{"ppi-0x1"})
		if n := s2.SpillCache(); n != 2 {
			t.Fatalf("SpillCache = %d, want 2 chains", n)
		}
		s2.Stop()
		s4 := newTestServer(t, Config{Threads: 4, MSAWorkers: 1, Cache: cache.New(0), DiskCache: openDiskTier(t, dir, cachedisk.Config{})})
		st := runTrace(t, s4, []string{"ppi-0x1"})
		if st[0].ChainsDisk != 2 || st[0].ChainsFresh != 0 {
			t.Fatalf("a 4-thread request over a 2-thread server's tier: %+v, want 2 disk hits", st[0])
		}
		if got := fingerprint(t, s4, st[0].ID); got != want[req{"ppi-0x1", 4}] {
			t.Fatalf("disk replay at T4:\n  want %s\n  got  %s", want[req{"ppi-0x1", 4}], got)
		}
	})
}

// TestSpillEncodesOnlyWhatTheDiskLacks runs a PPI screen on a memory tier
// no chain fits in, so every chain is evicted the moment it lands — fresh
// or read back from disk — over and over. Each distinct chain is written
// once, and a chain the disk already holds is never offered again.
func TestSpillEncodesOnlyWhatTheDiskLacks(t *testing.T) {
	store := openDiskTier(t, t.TempDir(), cachedisk.Config{})
	s := newTestServer(t, Config{Threads: 2, MSAWorkers: 1, Cache: cache.New(1), DiskCache: store})
	trace := []string{"ppi-0x1", "ppi-2x3", "ppi-0x2", "ppi-1x3", "ppi-0x3", "ppi-1x2"}
	for _, js := range runTrace(t, s, trace) {
		if js.State != "done" {
			t.Fatalf("request failed: %+v", js)
		}
	}
	ds := store.Stats()
	if ds.Puts != 4 || ds.PutExisting != 0 {
		t.Fatalf("disk puts = %d, re-puts = %d; want 4 distinct chains written once each", ds.Puts, ds.PutExisting)
	}
	if ds.Hits == 0 {
		t.Fatal("no chain was read back from disk: the trace proves nothing")
	}
	if got := s.Metrics().Get("msa_chain_spills"); got != 4 {
		t.Fatalf("msa_chain_spills = %d, want 4 payloads encoded", got)
	}
}
