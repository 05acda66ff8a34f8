// Package cachedisk is the persistent second tier under the serving
// layer's in-memory MSA cache: a crash-safe, content-addressed store of
// per-chain search results. High-throughput screening campaigns (AF_Cache,
// PAPERS.md) re-run identical chain MSAs across complexes and across
// process restarts; the memory LRU only helps within one process, so
// everything evicted — or computed before the last restart — is paid for
// again. This tier makes those results durable without ever risking a
// wrong answer:
//
//   - Entries are single files written crash-safely: temp file → fsync →
//     atomic rename → directory fsync. A reader never observes a partial
//     entry under its final name.
//   - Every entry carries a self-describing length-prefixed header (magic,
//     format version, codec, key, payload length, sha256 of the payload).
//     Reads re-verify the checksum, so a bit-flipped or truncated file is
//     detected — and dropped — rather than decoded.
//   - The objects directory is the index: there is no second record of
//     what the store holds. Open lists it and keeps every <key>.ent file
//     that verifies under the key its name carries; a file that fails
//     verification is deleted as corrupt, and anything else (a stale temp
//     from a crash before rename, a stray name) is deleted as an orphan.
//   - A bad entry is never an error, only a miss. Transient I/O failures
//     retry with capped modeled backoff; persistent failures trip a
//     circuit breaker that drops the store to memory-only mode — Get
//     misses, Put no-ops — instead of failing requests.
//
// Disk faults are injectable through resilience.Injector's disk ops
// (diskfault:<write|fsync|rename|flip|read>), which is how the chaos-disk gate
// proves the properties above hold under torn writes, sync errors,
// simulated mid-write crashes and silent corruption.
package cachedisk

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"afsysbench/internal/resilience"
	"afsysbench/internal/rng"
)

const (
	// magic identifies an entry file; version is the on-disk format.
	magic   = "AFC1"
	version = 1
	// entrySuffix names committed entry files inside objectsDir.
	entrySuffix = ".ent"
	objectsDir  = "objects"
	// maxKeyLen bounds keys (and therefore filenames).
	maxKeyLen = 128
)

// errCorrupt marks an entry whose bytes are structurally or
// cryptographically wrong — distinct from I/O errors, which may be
// transient and are retried. Corruption is never retried: the entry is
// dropped and the lookup is a miss.
var errCorrupt = errors.New("cachedisk: corrupt entry")

// Config tunes one Store.
type Config struct {
	// Dir is the store's root directory (created if missing).
	Dir string
	// Injector supplies seeded disk-op faults (nil injects nothing).
	Injector *resilience.Injector
	// BreakerThreshold / BreakerCooldown tune the memory-only degradation
	// breaker (defaults 5 failures / 10s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Now supplies the breaker clock (tests); nil means time.Now.
	Now func() time.Time
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	PutExisting uint64 `json:"put_existing"`
	// CorruptDropped counts entries rejected by header/checksum
	// verification (at reload or read) and dropped; DecodeDropped counts
	// entries the caller reported undecodable via Drop.
	CorruptDropped uint64 `json:"corrupt_dropped"`
	DecodeDropped  uint64 `json:"decode_dropped"`
	// OrphansDropped counts files deleted at open because they are not
	// named as entries (stale temp files, stray names).
	OrphansDropped uint64 `json:"orphans_dropped"`
	// ReloadedEntries is how many entries survived verification at open.
	ReloadedEntries int `json:"reloaded_entries"`
	// WriteErrors / ReadErrors count operations that exhausted their retry
	// budget.
	WriteErrors uint64 `json:"write_errors"`
	ReadErrors  uint64 `json:"read_errors"`
	// Deprecated: JournalErrors is always zero; the store keeps no journal.
	JournalErrors uint64 `json:"-"`
	// Retries counts I/O retry attempts; RetryWaitSeconds is the summed
	// modeled backoff (charged, not slept — determinism).
	Retries          uint64  `json:"retries"`
	RetryWaitSeconds float64 `json:"retry_wait_seconds"`
	// DegradedOps counts operations skipped while the breaker was open;
	// Degraded reports memory-only mode right now.
	DegradedOps uint64                     `json:"degraded_ops"`
	Degraded    bool                       `json:"degraded"`
	Breaker     resilience.BreakerSnapshot `json:"breaker"`
	Entries     int                        `json:"entries"`
	Bytes       int64                      `json:"bytes"`
}

// Store is the disk tier. A nil *Store is valid and means "no disk tier":
// Get always misses, Put is a no-op — call sites stay unconditional, the
// package convention. All operations are safe for concurrent use; disk
// I/O is serialized, which also makes fault-budget consumption
// deterministic under concurrency.
type Store struct {
	dir     string
	objects string
	inj     *resilience.Injector
	breaker *resilience.Breaker

	mu     sync.Mutex
	index  map[string]int64 // key → payload size
	bytes  int64
	tmpSeq uint64

	hits, misses, puts, putExisting uint64
	corruptDropped, decodeDropped   uint64
	orphansDropped                  uint64
	writeErrors, readErrors         uint64
	retries                         uint64
	retryWaitSeconds                float64
	degradedOps                     uint64
	reloaded                        int
}

// Open builds (or re-opens) the store rooted at cfg.Dir and indexes the
// entries its objects directory holds. Corrupt or stray files are removed
// and counted, never an error; Open fails only when the directory itself
// cannot be created.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cachedisk: empty dir")
	}
	objects := filepath.Join(cfg.Dir, objectsDir)
	if err := os.MkdirAll(objects, 0o755); err != nil {
		return nil, fmt.Errorf("cachedisk: %w", err)
	}
	s := &Store{
		dir:     cfg.Dir,
		objects: objects,
		inj:     cfg.Injector,
		index:   make(map[string]int64),
	}
	s.breaker = resilience.NewBreaker(resilience.BreakerConfig{
		Threshold: cfg.BreakerThreshold,
		Cooldown:  cfg.BreakerCooldown,
		Now:       cfg.Now,
	})
	s.reload()
	return s, nil
}

// reload indexes every <key>.ent file in objects/ that verifies under the
// key its name carries, and removes everything else: entries that fail
// verification (corrupt), and stale temps from a crash before rename or
// stray names (orphans).
func (s *Store) reload() {
	names, err := os.ReadDir(s.objects)
	if err != nil {
		return
	}
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		path := filepath.Join(s.objects, de.Name())
		key, isEntry := strings.CutSuffix(de.Name(), entrySuffix)
		if !isEntry || !validKey(key) {
			if os.Remove(path) == nil {
				s.orphansDropped++
			}
			continue
		}
		payload, _, err := readEntryFile(path, key)
		if err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				s.corruptDropped++
				os.Remove(path)
			}
			continue
		}
		s.index[key] = int64(len(payload))
		s.bytes += int64(len(payload))
		s.reloaded++
	}
}

// Get returns the payload and codec stored for key. Corruption (bad
// header, checksum mismatch) drops the entry and misses; transient read
// errors retry with capped modeled backoff; exhausted retries count a
// read error, feed the breaker, and miss. Get never returns a payload
// whose checksum did not verify.
func (s *Store) Get(key string) (payload []byte, codec uint16, ok bool) {
	if s == nil {
		return nil, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.index[key]; !exists {
		s.misses++
		return nil, 0, false
	}
	if !s.breaker.Allow() {
		s.degradedOps++
		s.misses++
		return nil, 0, false
	}
	var lastErr error
	var bo *rng.Source // one jitter stream per operation, taken on its first retry
	for attempt := 1; attempt <= resilience.MaxAttempts; attempt++ {
		if attempt > 1 {
			if bo == nil {
				bo = s.inj.BackoffSource("cachedisk/read/" + key)
			}
			s.retries++
			s.retryWaitSeconds += resilience.Backoff(attempt-1, bo)
		}
		if err := s.inj.DiskFault("read"); err != nil {
			lastErr = err
			continue
		}
		p, c, err := readEntryFile(s.entryPath(key), key)
		if err == nil {
			s.breaker.Success()
			s.hits++
			return p, c, true
		}
		if errors.Is(err, errCorrupt) || errors.Is(err, os.ErrNotExist) {
			// The disk answered; the content is wrong (or gone). Not a
			// disk-health signal — drop the entry and miss.
			s.breaker.Success()
			s.dropLocked(key)
			s.corruptDropped++
			s.misses++
			return nil, 0, false
		}
		lastErr = err
	}
	s.readErrors++
	s.breaker.Failure(lastErr)
	s.misses++
	return nil, 0, false
}

// Put stores payload under key, crash-safely and idempotently (an
// existing key is left untouched — entries are content-addressed, so a
// re-put carries identical bytes). Disk failures never propagate: they
// retry, then count a write error and feed the breaker. The only error
// returned is an invalid key.
func (s *Store) Put(key string, codec uint16, payload []byte) error {
	if s == nil {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("cachedisk: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.index[key]; exists {
		s.putExisting++
		return nil
	}
	if !s.breaker.Allow() {
		s.degradedOps++
		return nil
	}
	var lastErr error
	var bo *rng.Source
	for attempt := 1; attempt <= resilience.MaxAttempts; attempt++ {
		if attempt > 1 {
			if bo == nil {
				bo = s.inj.BackoffSource("cachedisk/write/" + key)
			}
			s.retries++
			s.retryWaitSeconds += resilience.Backoff(attempt-1, bo)
		}
		if err := s.writeEntry(key, codec, payload); err != nil {
			lastErr = err
			continue
		}
		s.breaker.Success()
		s.index[key] = int64(len(payload))
		s.bytes += int64(len(payload))
		s.puts++
		return nil
	}
	s.writeErrors++
	s.breaker.Failure(lastErr)
	return nil
}

// Has reports whether the store indexes an entry under key, without
// reading it or consulting the breaker. A spill asks first, so it does not
// build a payload Put would discard.
func (s *Store) Has(key string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Drop removes an entry whose payload verified but failed the caller's
// decode — semantic corruption the checksum cannot see (e.g. a payload
// written by a buggy encoder). Counted separately from checksum drops.
func (s *Store) Drop(key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; ok {
		s.dropLocked(key)
		s.decodeDropped++
	}
}

// dropLocked removes key from the index and best-effort deletes its file.
func (s *Store) dropLocked(key string) {
	if size, ok := s.index[key]; ok {
		s.bytes -= size
		delete(s.index, key)
	}
	os.Remove(s.entryPath(key))
}

// Len returns the live entry count.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Dir returns the store root ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Stats returns a snapshot of the counters. A nil store reports zeros.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:             s.hits,
		Misses:           s.misses,
		Puts:             s.puts,
		PutExisting:      s.putExisting,
		CorruptDropped:   s.corruptDropped,
		DecodeDropped:    s.decodeDropped,
		OrphansDropped:   s.orphansDropped,
		ReloadedEntries:  s.reloaded,
		WriteErrors:      s.writeErrors,
		ReadErrors:       s.readErrors,
		Retries:          s.retries,
		RetryWaitSeconds: s.retryWaitSeconds,
		DegradedOps:      s.degradedOps,
		Degraded:         s.breaker.State() == resilience.BreakerOpen,
		Breaker:          s.breaker.Snapshot(),
		Entries:          len(s.index),
		Bytes:            s.bytes,
	}
}

// Close releases nothing: the store holds no open file between operations.
//
// Deprecated: a Store needs no closing; Close always returns nil.
func (s *Store) Close() error { return nil }

// writeEntry commits one entry file crash-safely, consulting the fault
// injector at each guard point: flip (silent post-checksum corruption),
// write (torn write), fsync (sync error), rename (simulated crash between
// temp-write and rename — the temp file stays behind for the reload
// cleanup to prove itself on).
func (s *Store) writeEntry(key string, codec uint16, payload []byte) error {
	data := appendHeader(nil, key, codec, payload)
	hdrLen := len(data)
	data = append(data, payload...)
	if err := s.inj.DiskFault("flip"); err != nil && len(payload) > 0 {
		// Silent corruption: the checksum in the header covers the true
		// payload, the bytes on disk differ by one bit. Every read path
		// must catch this.
		data[hdrLen+len(payload)/2] ^= 0x01
	}
	s.tmpSeq++
	tmp := filepath.Join(s.objects, fmt.Sprintf("%s.%d.tmp", key, s.tmpSeq))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if ferr := s.inj.DiskFault("write"); ferr != nil {
		// Torn write: half the bytes land, then the device errors.
		f.Write(data[:len(data)/2])
		f.Close()
		os.Remove(tmp)
		return ferr
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if ferr := s.inj.DiskFault("fsync"); ferr != nil {
		f.Close()
		os.Remove(tmp)
		return ferr
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if rerr := s.inj.DiskFault("rename"); rerr != nil {
		// Simulated crash between temp-write and rename: the fully
		// written temp file is left on disk, exactly what a real crash
		// leaves. Reload must collect it as garbage.
		return rerr
	}
	if err := os.Rename(tmp, s.entryPath(key)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(s.objects)
	return nil
}

// entryPath maps a key to its committed file.
func (s *Store) entryPath(key string) string {
	return filepath.Join(s.objects, key+entrySuffix)
}

// validKey accepts keys that are safe as filenames: non-empty, bounded,
// and made of word characters, dots and dashes with no leading dot.
// cache.Key's 32-hex-char output always qualifies.
func validKey(key string) bool {
	if key == "" || len(key) > maxKeyLen || key[0] == '.' {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// appendHeader serializes the entry header: magic, version, codec,
// length-prefixed key, payload length, payload sha256.
func appendHeader(b []byte, key string, codec uint16, payload []byte) []byte {
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint16(b, version)
	b = binary.LittleEndian.AppendUint16(b, codec)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	b = append(b, sum[:]...)
	return b
}

// readEntryFile reads and fully verifies one entry file: magic, version,
// embedded key against wantKey, exact length, payload checksum. Any
// structural or cryptographic mismatch returns errCorrupt; I/O failures
// return the underlying error. On success the verified payload and codec
// are returned — a payload is never returned unverified.
func readEntryFile(path, wantKey string) (payload []byte, codec uint16, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	const fixed = len(magic) + 2 + 2 + 2 // magic, version, codec, keyLen
	if len(data) < fixed || string(data[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic in %s", errCorrupt, filepath.Base(path))
	}
	off := len(magic)
	v := binary.LittleEndian.Uint16(data[off:])
	off += 2
	if v != version {
		return nil, 0, fmt.Errorf("%w: version %d in %s", errCorrupt, v, filepath.Base(path))
	}
	codec = binary.LittleEndian.Uint16(data[off:])
	off += 2
	keyLen := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if keyLen > maxKeyLen || len(data) < off+keyLen+8+sha256.Size {
		return nil, 0, fmt.Errorf("%w: truncated header in %s", errCorrupt, filepath.Base(path))
	}
	key := string(data[off : off+keyLen])
	off += keyLen
	if key != wantKey {
		return nil, 0, fmt.Errorf("%w: key mismatch in %s", errCorrupt, filepath.Base(path))
	}
	payloadLen := binary.LittleEndian.Uint64(data[off:])
	off += 8
	var want [sha256.Size]byte
	copy(want[:], data[off:])
	off += sha256.Size
	if uint64(len(data)-off) != payloadLen {
		return nil, 0, fmt.Errorf("%w: length mismatch in %s", errCorrupt, filepath.Base(path))
	}
	payload = data[off:]
	if sha256.Sum256(payload) != want {
		return nil, 0, fmt.Errorf("%w: checksum mismatch in %s", errCorrupt, filepath.Base(path))
	}
	return payload, codec, nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
