package serve

import (
	"os"
	"path/filepath"
	"testing"

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
	t.Cleanup(func() { st.Close() })
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
	if err := s1.Config().DiskCache.Close(); err != nil {
		t.Fatal(err)
	}

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
	if err := s1.Config().DiskCache.Close(); err != nil {
		t.Fatal(err)
	}

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
	if !store.Degraded() {
		t.Fatalf("breaker never opened: %+v", store.Stats())
	}
	if ds := store.Stats(); ds.DegradedOps == 0 {
		t.Fatalf("degraded ops not counted: %+v", ds)
	}
}

// chainOf runs 2PV7 — one MSA chain — on a memory-only server at threads
// and returns the chain's key, its encoded payload and the result's
// fingerprint.
func chainOf(t *testing.T, threads int) (key string, payload []byte, want string) {
	t.Helper()
	s := newTestServer(t, Config{Threads: threads, MSAWorkers: 1, Cache: cache.New(0)})
	st := runTrace(t, s, []string{"2PV7"})
	want = fingerprint(t, s, st[0].ID)
	var err error
	s.Config().Cache.Range(func(k string, val any, _ int64) bool {
		key = k
		payload, err = val.(*msa.CachedChain).Encode()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if payload == nil {
		t.Fatal("2PV7 left no chain in the memory tier")
	}
	return key, payload, want
}

// TestDiskEntryOfAnotherThreadCountIsDropped: a checksum-valid entry whose
// chain was searched at another thread count than its key names — two
// workers under a four-thread key, four under a two-thread key — is
// dropped, not replayed into the request's workers: the request and its
// repeat get the fresh result, and the drop is counted.
func TestDiskEntryOfAnotherThreadCountIsDropped(t *testing.T) {
	key2, payload2, want2 := chainOf(t, 2)
	key4, payload4, want4 := chainOf(t, 4)
	for _, tc := range []struct {
		threads      int
		key, want    string
		foreignBytes []byte
	}{
		{4, key4, want4, payload2},
		{2, key2, want2, payload4},
	} {
		store := openDiskTier(t, t.TempDir(), cachedisk.Config{})
		if err := store.Put(tc.key, chainCodec, tc.foreignBytes); err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Config{Threads: tc.threads, MSAWorkers: 1, Cache: cache.New(0), DiskCache: store})
		st := runTrace(t, s, []string{"2PV7", "2PV7"})
		for i, js := range st {
			if js.State != "done" {
				t.Fatalf("T%d request %d: %+v", tc.threads, i, js)
			}
			if got := fingerprint(t, s, js.ID); got != tc.want {
				t.Fatalf("T%d request %d served a foreign chain:\n  want %s\n  got  %s", tc.threads, i, tc.want, got)
			}
		}
		if st[0].ChainsDisk != 0 || st[0].ChainsFresh != 1 || st[1].ChainsMem != 1 {
			t.Fatalf("T%d chains = %+v then %+v, want a fresh search, then a memory hit", tc.threads, st[0], st[1])
		}
		if got := s.Metrics().Get("msa_chain_disk_decode_drops"); got != 1 {
			t.Fatalf("T%d decode drops = %d, want 1", tc.threads, got)
		}
	}
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
