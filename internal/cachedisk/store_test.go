package cachedisk

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"afsysbench/internal/resilience"
	"afsysbench/internal/rng"
)

func openT(t *testing.T, dir string, faults string) *Store {
	t.Helper()
	var inj *resilience.Injector
	if faults != "" {
		fs, err := resilience.ParseFaults(faults)
		if err != nil {
			t.Fatal(err)
		}
		inj = resilience.NewInjector(fs, rng.New(7))
	}
	s, err := Open(Config{Dir: dir, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openT(t, t.TempDir(), "")
	payload := []byte("the quick brown chain delta")
	if err := s.Put("abc123", 1, payload); err != nil {
		t.Fatal(err)
	}
	got, codec, ok := s.Get("abc123")
	if !ok || codec != 1 || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q codec=%d ok=%v", got, codec, ok)
	}
	if _, _, ok := s.Get("missing"); ok {
		t.Fatal("missing key hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 || st.Bytes != int64(len(payload)) {
		t.Fatalf("stats %+v", st)
	}
}

func TestPutIdempotent(t *testing.T) {
	s := openT(t, t.TempDir(), "")
	if err := s.Put("k1", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k1", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Puts != 1 || st.PutExisting != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := openT(t, t.TempDir(), "")
	for _, key := range []string{"", ".hidden", "a/b", "a\\b", "k ey", strings.Repeat("x", maxKeyLen+1)} {
		if err := s.Put(key, 1, []byte("v")); err == nil {
			t.Fatalf("key %q accepted", key)
		}
	}
}

func TestReloadAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "")
	for _, k := range []string{"aa", "bb", "cc"} {
		if err := s.Put(k, 2, []byte("payload-"+k)); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openT(t, dir, "")
	st := s2.Stats()
	if st.ReloadedEntries != 3 || st.Entries != 3 || st.CorruptDropped != 0 || st.OrphansDropped != 0 {
		t.Fatalf("reload stats %+v", st)
	}
	for _, k := range []string{"aa", "bb", "cc"} {
		got, codec, ok := s2.Get(k)
		if !ok || codec != 2 || string(got) != "payload-"+k {
			t.Fatalf("reloaded %s = %q codec=%d ok=%v", k, got, codec, ok)
		}
	}
}

// mangle applies a named corruption to a file.
func mangle(t *testing.T, path, how string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	switch how {
	case "truncate-mid":
		data = data[:len(data)/2]
	case "truncate-1":
		data = data[:len(data)-1]
	case "zero-length":
		data = nil
	case "flip-header":
		data[1] ^= 0x40
	case "flip-payload":
		data[len(data)-1] ^= 0x01
	case "garbage":
		data = []byte("this was never an entry file")
	default:
		t.Fatalf("unknown mangle %q", how)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptEntriesDroppedAtReload(t *testing.T) {
	for _, how := range []string{"truncate-mid", "truncate-1", "zero-length", "flip-header", "flip-payload", "garbage"} {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir, "")
			if err := s.Put("good", 1, []byte("good payload")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("bad", 1, []byte("doomed payload")); err != nil {
				t.Fatal(err)
			}
			mangle(t, filepath.Join(dir, objectsDir, "bad"+entrySuffix), how)

			s2 := openT(t, dir, "")
			st := s2.Stats()
			if st.CorruptDropped != 1 || st.ReloadedEntries != 1 {
				t.Fatalf("stats %+v", st)
			}
			if _, _, ok := s2.Get("bad"); ok {
				t.Fatal("corrupt entry served")
			}
			got, _, ok := s2.Get("good")
			if !ok || string(got) != "good payload" {
				t.Fatalf("good entry lost: %q ok=%v", got, ok)
			}
			if _, err := os.Stat(filepath.Join(dir, objectsDir, "bad"+entrySuffix)); !os.IsNotExist(err) {
				t.Fatal("corrupt file not deleted")
			}
		})
	}
}

func TestCrossLinkedEntryDropped(t *testing.T) {
	// File "bad" holds the (internally consistent) bytes of entry "good":
	// the checksum passes but the embedded key disagrees with the name —
	// a cross-linked or misplaced file must never be served under the
	// wrong key.
	dir := t.TempDir()
	s := openT(t, dir, "")
	if err := s.Put("good", 1, []byte("good payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("bad", 1, []byte("bad payload")); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(dir, objectsDir, "good"+entrySuffix))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, objectsDir, "bad"+entrySuffix), src, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, "")
	if got, _, ok := s2.Get("bad"); ok {
		t.Fatalf("cross-linked entry served: %q", got)
	}
	if s2.Stats().CorruptDropped != 1 {
		t.Fatalf("stats %+v", s2.Stats())
	}
}

func TestCorruptionAfterOpenIsAMissNotAnError(t *testing.T) {
	// Bit rot that happens while the store is open: the index knows the
	// key, the file fails its checksum at read time.
	dir := t.TempDir()
	s := openT(t, dir, "")
	if err := s.Put("rotting", 1, []byte("fresh payload")); err != nil {
		t.Fatal(err)
	}
	mangle(t, filepath.Join(dir, objectsDir, "rotting"+entrySuffix), "flip-payload")
	if got, _, ok := s.Get("rotting"); ok {
		t.Fatalf("rotted entry served: %q", got)
	}
	st := s.Stats()
	if st.CorruptDropped != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v", st)
	}
	// The drop is sticky: the next lookup is a plain miss.
	if _, _, ok := s.Get("rotting"); ok {
		t.Fatal("dropped entry resurrected")
	}
}

func TestUnrecordedEntryServedAfterReopen(t *testing.T) {
	// A committed, verified entry that nothing else records — what a crash
	// right after the rename leaves — is an entry: the directory is the
	// index.
	dir := t.TempDir()
	objects := filepath.Join(dir, objectsDir)
	if err := os.MkdirAll(objects, 0o755); err != nil {
		t.Fatal(err)
	}
	entry := validEntryBytes("lone", 3, []byte("lone payload"))
	if err := os.WriteFile(filepath.Join(objects, "lone"+entrySuffix), entry, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir, "")
	st := s.Stats()
	if st.ReloadedEntries != 1 || st.OrphansDropped != 0 || st.CorruptDropped != 0 {
		t.Fatalf("stats %+v", st)
	}
	got, codec, ok := s.Get("lone")
	if !ok || codec != 3 || string(got) != "lone payload" {
		t.Fatalf("Get = %q codec=%d ok=%v", got, codec, ok)
	}
}

func TestLegacyIndexLogIgnored(t *testing.T) {
	// A store written by an older build keeps an index.log beside objects/.
	// Its bytes mean nothing now: every entry is served, the file is left
	// as it is.
	dir := t.TempDir()
	s := openT(t, dir, "")
	for _, k := range []string{"aa", "bb"} {
		if err := s.Put(k, 1, []byte("payload-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	legacy := filepath.Join(dir, "index.log")
	junk := []byte("R\x02\x00aa\xff\xfe not a journal any more")
	if err := os.WriteFile(legacy, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, "")
	if st := s2.Stats(); st.ReloadedEntries != 2 || st.OrphansDropped != 0 || st.CorruptDropped != 0 {
		t.Fatalf("stats %+v", st)
	}
	for _, k := range []string{"aa", "bb"} {
		if got, _, ok := s2.Get(k); !ok || string(got) != "payload-"+k {
			t.Fatalf("%s = %q ok=%v", k, got, ok)
		}
	}
	if got, err := os.ReadFile(legacy); err != nil || !bytes.Equal(got, junk) {
		t.Fatalf("index.log touched: %q %v", got, err)
	}
}

func TestStoreRootHoldsOnlyObjects(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "")
	for _, k := range []string{"aa", "bb", "cc"} {
		if err := s.Put(k, 1, []byte("payload-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	openT(t, dir, "")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != objectsDir || !ents[0].IsDir() {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("store root holds %v, want only %s/", names, objectsDir)
	}
}

func TestMidWriteCrashLeavesNoTrace(t *testing.T) {
	// diskfault:rename simulates dying between temp-write and rename: the
	// fully written temp file stays behind and the entry is never
	// committed. After "restart", reload collects the garbage.
	dir := t.TempDir()
	s := openT(t, dir, "diskfault:rename:4") // every attempt of one Put
	if err := s.Put("crashy", 1, []byte("never committed")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Puts != 0 || st.WriteErrors != 1 || st.Retries != 3 {
		t.Fatalf("stats %+v", st)
	}
	if _, _, ok := s.Get("crashy"); ok {
		t.Fatal("uncommitted entry served")
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, objectsDir, "*.tmp"))
	if len(tmps) == 0 {
		t.Fatal("simulated crash left no temp file to clean")
	}

	s2 := openT(t, dir, "")
	st = s2.Stats()
	if st.OrphansDropped != uint64(len(tmps)) {
		t.Fatalf("orphans: %+v, want %d temps collected", st, len(tmps))
	}
	if left, _ := filepath.Glob(filepath.Join(dir, objectsDir, "*")); len(left) != 0 {
		t.Fatalf("objects dir not clean after reload: %v", left)
	}
}

func TestTransientWriteFaultsRetryThenSucceed(t *testing.T) {
	for _, spec := range []string{"diskfault:write:2", "diskfault:fsync:2"} {
		t.Run(spec, func(t *testing.T) {
			s := openT(t, t.TempDir(), spec)
			if err := s.Put("k", 1, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Puts != 1 || st.Retries != 2 || st.WriteErrors != 0 {
				t.Fatalf("stats %+v", st)
			}
			if want := twoBackoffs(t, spec, "cachedisk/write/k"); st.RetryWaitSeconds != want {
				t.Fatalf("retry wait %v s, want %v (two draws from one source)", st.RetryWaitSeconds, want)
			}
			got, _, ok := s.Get("k")
			if !ok || string(got) != "payload" {
				t.Fatalf("payload lost after retries: %q ok=%v", got, ok)
			}
		})
	}
}

func TestBitFlipCaughtByChecksum(t *testing.T) {
	s := openT(t, t.TempDir(), "diskfault:flip:1")
	if err := s.Put("flipped", 1, []byte("silently corrupted payload")); err != nil {
		t.Fatal(err)
	}
	// The write "succeeded" — silent corruption is invisible to Put.
	if s.Stats().Puts != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
	if got, _, ok := s.Get("flipped"); ok {
		t.Fatalf("flipped payload served: %q", got)
	}
	st := s.Stats()
	if st.CorruptDropped != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReadFaultsRetryThenSucceed(t *testing.T) {
	s := openT(t, t.TempDir(), "diskfault:read:2")
	if err := s.Put("k", 1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, _, ok := s.Get("k")
	if !ok || string(got) != "payload" {
		t.Fatalf("read retries failed: %q ok=%v", got, ok)
	}
	st := s.Stats()
	if st.Retries != 2 || st.ReadErrors != 0 {
		t.Fatalf("stats %+v", st)
	}
	if want := twoBackoffs(t, "diskfault:read:2", "cachedisk/read/k"); st.RetryWaitSeconds != want {
		t.Fatalf("retry wait %v s, want %v (two draws from one source)", st.RetryWaitSeconds, want)
	}
}

// twoBackoffs is the modeled wait of an operation's first two retries under
// openT's injector for faults: two successive draws from the one backoff
// source the operation named name takes.
func twoBackoffs(t *testing.T, faults, name string) float64 {
	t.Helper()
	fs, err := resilience.ParseFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	src := resilience.NewInjector(fs, rng.New(7)).BackoffSource(name)
	first := resilience.Backoff(1, src)
	return first + resilience.Backoff(2, src)
}

func TestSustainedFailureTripsBreakerToMemoryOnly(t *testing.T) {
	now := time.Unix(1000, 0)
	fs, _ := resilience.ParseFaults("diskfault:write:1000")
	inj := resilience.NewInjector(fs, rng.New(7))
	s, err := Open(Config{
		Dir:              t.TempDir(),
		Injector:         inj,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
		Now:              func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if err := s.Put("k", 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Stats().Degraded {
		t.Fatalf("breaker not open after threshold: %+v", s.Stats())
	}
	// Memory-only mode: operations are skipped, not failed.
	if err := s.Put("k2", 1, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DegradedOps != 1 || !st.Degraded {
		t.Fatalf("stats %+v", st)
	}

	// After the cooldown the half-open probe runs a real operation; the
	// fault budget is exhausted by then in this scenario? No — it is
	// huge, so the probe fails and the breaker re-opens.
	now = now.Add(11 * time.Second)
	if err := s.Put("k3", 1, []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if !s.Stats().Degraded {
		t.Fatal("failed probe should re-open the breaker")
	}
}

func TestBreakerRecoversWhenDiskHeals(t *testing.T) {
	now := time.Unix(1000, 0)
	fs, _ := resilience.ParseFaults("diskfault:write:8") // 2 puts × 4 attempts
	inj := resilience.NewInjector(fs, rng.New(7))
	s, err := Open(Config{
		Dir:              t.TempDir(),
		Injector:         inj,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
		Now:              func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s.Put("k", 1, []byte("v"))
	}
	if !s.Stats().Degraded {
		t.Fatal("breaker should be open")
	}
	now = now.Add(11 * time.Second)
	// Fault budget spent: the half-open probe succeeds and closes the
	// breaker; the disk tier is live again.
	if err := s.Put("healed", 1, []byte("back")); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Degraded {
		t.Fatalf("breaker still open after healed probe: %+v", s.Stats())
	}
	if got, _, ok := s.Get("healed"); !ok || string(got) != "back" {
		t.Fatalf("healed entry lost: %q ok=%v", got, ok)
	}
}

func TestDropForUndecodablePayload(t *testing.T) {
	s := openT(t, t.TempDir(), "")
	if err := s.Put("k", 1, []byte("checksum fine, semantics broken")); err != nil {
		t.Fatal(err)
	}
	s.Drop("k")
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("dropped entry served")
	}
	st := s.Stats()
	if st.DecodeDropped != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v", st)
	}
	s.Drop("never-there") // no-op, no count
	if s.Stats().DecodeDropped != 1 {
		t.Fatal("dropping a missing key counted")
	}
}

func TestNilStoreIsDisabledTier(t *testing.T) {
	var s *Store
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put("k", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Dir() != "" || s.Stats().Degraded {
		t.Fatal("nil store misbehaved")
	}
	if s.Stats() != (Stats{}) {
		t.Fatal("nil store stats not zero")
	}
	s.Drop("k")
}

func TestConcurrentPutGet(t *testing.T) {
	s := openT(t, t.TempDir(), "")
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- true }()
			key := []string{"k0", "k1", "k2", "k3"}[g%4]
			payload := []byte("payload-" + key)
			for i := 0; i < 25; i++ {
				s.Put(key, 1, payload)
				if got, _, ok := s.Get(key); ok && !bytes.Equal(got, payload) {
					t.Errorf("wrong payload for %s: %q", key, got)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if s.Len() != 4 {
		t.Fatalf("entries = %d, want 4", s.Len())
	}
}
