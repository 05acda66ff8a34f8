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

// row is a payload's magic, version and summary row: every field zero but
// Scanned, a zig-zag varint byte.
func row(scanned byte) []byte {
	return cat([]byte(chainMagic), []byte{chainVersion, 0, 0, 0, 0, scanned, 0, 0, 0, 0})
}

// validChain is the smallest payload with an event: a summary row of one
// record scanned, no hits, function table {"f"}, one event, one database of
// one record, that record's one event, nothing streamed, no serial work.
func validChain() []byte {
	return cat(row(2), []byte{0}, []byte{1, 1, 'f'}, []byte{1}, codecEvent(0, 0), []byte{1, 1}, []byte{1, 1}, []byte{0}, []byte{0})
}

// garbageChains are payloads DecodeCachedChain must refuse: foreign bytes,
// then validChain broken one field at a time.
func garbageChains() [][]byte {
	one := row(2) // a summary row of one record scanned
	valid := validChain()
	f, fg, gf, none := []byte{1, 1, 'f'}, []byte{2, 1, 'f', 1, 'g'}, []byte{2, 1, 'g', 1, 'f'}, []byte{0}
	ev, ev1, evs := cat([]byte{1}, codecEvent(0, 0)), cat([]byte{1}, codecEvent(1, 0)), cat([]byte{2}, codecEvent(0, 0), codecEvent(0, 0))
	db1, rec1 := []byte{1, 1}, []byte{1, 1} // one database of one record; one record of one event
	out := [][]byte{
		nil, {}, {0x00}, []byte("not gob at all"), make([]byte, 512), []byte(chainMagic),
		cat([]byte(chainMagic), []byte{chainVersion + 1}, valid[len(chainMagic)+1:]), // unknown version
		cat(valid, none), // trailing byte
		cat(one, none, f, ev1, db1, rec1, none, none),                                                    // function index out of range
		cat(one, none, f, []byte{1}, codecEvent(0, 3), db1, rec1, none, none),                            // access pattern out of range
		cat(one, none, f, ev, db1, rec1, none, []byte{0x80, 0x00}),                                       // overlong varint
		cat(one, none, f, []byte{100}, codecEvent(0, 0), db1, rec1, none, none),                          // more events than bytes
		cat(one, none, fg, ev, db1, rec1, none, none),                                                    // a name no event uses
		cat(one, none, gf, []byte{2}, codecEvent(0, 0), codecEvent(1, 0), db1, []byte{1, 2}, none, none), // names out of order
		cat(one, none, f, ev, db1, rec1, []byte{2, 1, 'b', 0, 1, 'a', 0}, none),                          // databases out of order
		cat(one, none, f, evs, db1, rec1, none, none),                                                    // record counts short of the events
		cat(one, none, f, ev, db1, []byte{1, 2}, none, none),                                             // record counts past the events
		cat(one, none, f, ev, db1, []byte{1, 0}, none, none),                                             // a record with no events
		cat(one, none, f, ev, []byte{1, 2}, rec1, none, none),                                            // 1 record scanned, rounds of 2
		cat(one, none, f, ev, []byte{1, 0}, rec1, none, none),                                            // 1 record scanned, rounds of 0
		cat(one, none, f, ev, none, rec1, none, none),                                                    // 1 record scanned, no databases
		cat(one, none, f, ev, db1, []byte{2, 1, 1}, none, none),                                          // trailing counts
		cat(one, none, f, ev, db1, none, none, none),                                                     // no counts
		cat(row(1), none, f, ev, db1, rec1, none, none),                                                  // -1 records scanned
		cat(row(0), none, f, ev, db1, none, none, none),                                                  // events but no records
		cat(one, []byte{1}), // a hit with no target
		cat(one, []byte{1, 1, 't', 0, 0, 0}, make([]byte, 32), []byte{2}, make([]byte, 4)), // alignment flag 2
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
// PPI pair, searched at 1 and 16 threads (the same bytes: a payload does not
// depend on the thread count).
func chainPayloads(tb testing.TB) [][]byte {
	ppi, err := inputs.PPIPair(0, 3)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, in := range append(inputs.Samples(), ppi) {
		for _, threads := range []int{1, 16} {
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
// bytes, and merges at every thread count from 1 to 17 into workers that
// hold all of its events between them.
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
		events := int(cc.d.starts[len(cc.d.starts)-1])
		for threads := 1; threads <= 17; threads++ {
			workers := newWorkers(threads)
			cc.d.link(workers)
			n := 0
			for _, acc := range workers {
				n += acc.Len()
			}
			if n != events {
				t.Fatalf("merged at %d threads, the workers hold %d of %d events", threads, n, events)
			}
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
