package cachedisk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzKey is the well-formed key every fuzz seed stores under.
const fuzzKey = "deadbeef00112233445566778899aabb"

// validEntryBytes builds a correct on-disk entry for seeding.
func validEntryBytes(key string, codec uint16, payload []byte) []byte {
	return append(appendHeader(nil, key, codec, payload), payload...)
}

// FuzzReloadEntry drops arbitrary bytes under an arbitrary file name in the
// objects directory and opens the store: the directory is the index, so
// both are disk input. The invariants under fuzzing: Open never panics and
// never errors; Get either misses or returns a payload whose sha256 matches
// the checksum embedded in the fuzzed file, under the key that file's own
// header carries — a wrong payload is impossible, not just unlikely; and
// every file Open leaves in objects/ is a <validKey>.ent that verifies.
func FuzzReloadEntry(f *testing.F) {
	name := fuzzKey + entrySuffix
	good := validEntryBytes(fuzzKey, 1, []byte("chain delta payload"))
	crossLinked := validEntryBytes("otherkey00", 1, []byte("cross-linked"))
	f.Add(name, good)
	f.Add(name, good[:len(good)/2])            // truncated mid-payload
	f.Add(name, []byte{})                      // zero-length file
	f.Add(name, []byte("AFC1 but not really")) // magic prefix, garbage rest
	f.Add(name, crossLinked)                   // wrong embedded key
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 0x20
	f.Add(name, flipped)                         // bit rot in payload
	f.Add("otherkey00"+entrySuffix, crossLinked) // an entry nothing else records
	f.Add(fuzzKey+".3.tmp", good)                // a temp a crash left before rename
	f.Add("."+name, good)                        // a name validKey refuses
	f.Add("index.log", []byte("R\x02\x00aa"))    // a stray name

	f.Fuzz(func(t *testing.T, name string, entry []byte) {
		if name == "" || name == "." || name == ".." || filepath.Base(name) != name || strings.ContainsAny(name, "/\\\x00") {
			t.Skip("not a file name inside objects/")
		}
		dir := t.TempDir()
		objects := filepath.Join(dir, objectsDir)
		if err := os.MkdirAll(objects, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(objects, name), entry, 0o644); err != nil {
			t.Skip("the file system refuses the name")
		}

		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("Open errored on corrupt state: %v", err)
		}
		left, err := os.ReadDir(objects)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range left {
			key, ok := strings.CutSuffix(de.Name(), entrySuffix)
			if !ok || !validKey(key) {
				t.Fatalf("Open left %q in objects/", de.Name())
			}
			if _, _, err := readEntryFile(filepath.Join(objects, de.Name()), key); err != nil {
				t.Fatalf("Open left an entry that does not verify: %v", err)
			}
		}

		key := strings.TrimSuffix(name, entrySuffix)
		if !validKey(key) {
			return
		}
		payload, _, ok := s.Get(key)
		if !ok {
			return
		}
		// A served payload must be exactly the one the file's own header
		// committed to, under the key that header names.
		const fixed = len(magic) + 2 + 2 + 2
		if len(entry) < fixed {
			t.Fatalf("served %d bytes from a file too short to hold a header", len(payload))
		}
		keyLen := int(binary.LittleEndian.Uint16(entry[fixed-2:]))
		off := fixed + keyLen + 8
		if off+sha256.Size > len(entry) {
			t.Fatalf("served %d bytes from a file too short to hold a checksum", len(payload))
		}
		if got := string(entry[fixed : fixed+keyLen]); got != key {
			t.Fatalf("served the entry of key %q under %q", got, key)
		}
		var want [sha256.Size]byte
		copy(want[:], entry[off:])
		if sha256.Sum256(payload) != want {
			t.Fatal("served payload does not match the entry's own checksum")
		}
		if !bytes.Equal(payload, entry[off+sha256.Size:]) {
			t.Fatal("served payload is not the entry's payload bytes")
		}
	})
}
