package msa

import (
	"bytes"
	"slices"
	"testing"

	"afsysbench/internal/inputs"
)

func cat(parts ...[]byte) []byte { return slices.Concat(parts...) }

// codecEvent is one encoded event: function index k, access pattern p,
// every other field zero.
func codecEvent(k, p byte) []byte {
	return cat([]byte{k, 0, 0, 0, p, 0}, make([]byte, 8), []byte{0, 0, 0})
}

// validChain is the smallest payload with an event: an empty summary row,
// no hits, function table {"f"}, one worker with one event, nothing
// streamed, no serial work.
func validChain() []byte {
	return cat([]byte(chainMagic), []byte{chainVersion}, make([]byte, 9),
		[]byte{0}, []byte{1, 1, 'f'}, []byte{1, 1}, codecEvent(0, 0), []byte{0}, []byte{0})
}

// garbageChains are payloads DecodeCachedChain must refuse: foreign bytes,
// then validChain broken one field at a time.
func garbageChains() [][]byte {
	row := cat([]byte(chainMagic), []byte{chainVersion}, make([]byte, 9))
	valid := validChain()
	f, fg, gf, one, none := []byte{1, 1, 'f'}, []byte{2, 1, 'f', 1, 'g'}, []byte{2, 1, 'g', 1, 'f'}, []byte{1, 1}, []byte{0}
	out := [][]byte{
		nil, {}, {0x00}, []byte("not gob at all"), make([]byte, 512), []byte(chainMagic),
		cat([]byte(chainMagic), []byte{chainVersion + 1}, valid[len(chainMagic)+1:]), // unknown version
		cat(valid, none), // trailing byte
		cat(row, none, f, one, codecEvent(1, 0), none, none),                             // function index out of range
		cat(row, none, f, one, codecEvent(0, 3), none, none),                             // access pattern out of range
		cat(row, none, f, one, codecEvent(0, 0), none, []byte{0x80, 0x00}),               // overlong varint
		cat(row, none, f, []byte{1, 100}, codecEvent(0, 0), none, none),                  // more events than bytes
		cat(row, none, fg, one, codecEvent(0, 0), none, none),                            // a name no event uses
		cat(row, none, gf, []byte{1, 2}, codecEvent(0, 0), codecEvent(1, 0), none, none), // names out of order
		cat(row, none, f, one, codecEvent(0, 0), []byte{2, 1, 'b', 0, 1, 'a', 0}, none),  // databases out of order
		cat(row, []byte{1}), // a hit with no target
		cat(row, []byte{1, 1, 't', 0, 0, 0}, make([]byte, 32), []byte{2}, make([]byte, 4)), // alignment flag 2
	}
	for n := range valid {
		out = append(out, valid[:n]) // every truncation
	}
	return out
}

func TestDecodeCachedChainRejectsGarbage(t *testing.T) {
	valid := validChain()
	cc, err := DecodeCachedChain(valid)
	if err != nil {
		t.Fatalf("the minimal payload does not decode: %v", err)
	}
	if again, err := cc.Encode(); err != nil || !bytes.Equal(again, valid) {
		t.Fatalf("the minimal payload re-encodes to %x (%v), want %x", again, err, valid)
	}
	for _, b := range garbageChains() {
		if _, err := DecodeCachedChain(b); err == nil {
			t.Fatalf("garbage %x decoded", b)
		}
	}
}

// chainPayloads returns the encoded chains of every Table II sample and one
// PPI pair, searched at 1 and 2 threads.
func chainPayloads(tb testing.TB) [][]byte {
	ppi, err := inputs.PPIPair(0, 3)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, in := range append(inputs.Samples(), ppi) {
		for _, threads := range []int{1, 2} {
			store := &mapChainCache{entries: make(map[string]*CachedChain)}
			if _, err := Run(in, Options{Threads: threads, DBs: dbs(tb), ChainCache: store.fetch}); err != nil {
				tb.Fatal(err)
			}
			for _, cc := range store.entries {
				b, err := cc.Encode()
				if err != nil {
					tb.Fatal(err)
				}
				out = append(out, b)
			}
		}
	}
	return out
}

// FuzzDecodeCachedChain: the decoder parses what a disk hands it, so on any
// bytes it returns an error or a chain — never panics — and a payload it
// accepts is the one encoding of that chain: it re-encodes to the same
// bytes.
func FuzzDecodeCachedChain(f *testing.F) {
	for _, b := range chainPayloads(f) {
		f.Add(b)
	}
	for _, b := range garbageChains() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cc, err := DecodeCachedChain(b)
		if err != nil {
			return
		}
		again, err := cc.Encode()
		if err != nil {
			t.Fatalf("a decoded chain does not encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("payload %x re-encodes to %x", b, again)
		}
	})
}

// BenchmarkChainCodec encodes and decodes each PPI pool chain's delta,
// searched at one thread as the ppi_two_tier workload searches it. An op
// is one chain; the pool's chains take turns.
func BenchmarkChainCodec(b *testing.B) {
	var chains []*CachedChain
	var payloads [][]byte
	for i := 0; i < inputs.PPIPoolSize; i++ {
		in, err := inputs.PPIPair(i, i)
		if err != nil {
			b.Fatal(err)
		}
		store := &mapChainCache{entries: make(map[string]*CachedChain)}
		if _, err := Run(in, Options{Threads: 1, DBs: dbs(b), ChainCache: store.fetch}); err != nil {
			b.Fatal(err)
		}
		for _, cc := range store.entries {
			p, err := cc.Encode()
			if err != nil {
				b.Fatal(err)
			}
			chains, payloads = append(chains, cc), append(payloads, p)
		}
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := chains[i%len(chains)].Encode(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeCachedChain(payloads[i%len(payloads)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
