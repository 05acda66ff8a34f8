package msa

import (
	"bytes"
	"slices"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
)

func cat(parts ...[]byte) []byte { return slices.Concat(parts...) }

// row is a payload's magic, version and summary row: every field zero but
// Scanned, a zig-zag varint byte.
func row(scanned byte) []byte {
	return cat([]byte(chainMagic), []byte{chainVersion, 0, 0, 0, 0, scanned, 0, 0, 0, 0})
}

// rec is one record's sums for a function: n events, every sum zero.
func rec(n byte) []byte { return []byte{n, 0, 0, 0, 0} }

// validChain is a small payload with both kinds of function: a summary row
// of two records scanned, no hits, one database of two records, three
// events — copy_to_iter in both records (every record: no indexes) and
// seed_filter in record 1 only (one index, as a gap from 0) — nothing
// streamed, no serial work.
func validChain() []byte {
	return cat(row(4), []byte{0}, []byte{1, 2}, []byte{3, 2},
		[]byte{byte(metering.CopyToIter), 2}, rec(1), rec(1),
		[]byte{byte(metering.SeedFilter), 1, 1}, rec(1),
		[]byte{0}, []byte{0})
}

// garbageChains are payloads DecodeCachedChain must refuse: foreign bytes,
// then validChain broken one field at a time.
func garbageChains() [][]byte {
	two := cat(row(4), []byte{0}) // a summary row of two records scanned, no hits
	valid := validChain()
	db2, none := []byte{1, 2}, []byte{0} // one database of two records
	copyBoth := cat([]byte{byte(metering.CopyToIter), 2}, rec(1), rec(1))
	seed := func(head ...byte) []byte { return cat([]byte{byte(metering.SeedFilter)}, head, rec(1)) }
	tail := cat(none, none) // nothing streamed, no serial work
	out := [][]byte{
		nil, {}, {0x00}, []byte("not gob at all"), make([]byte, 512), []byte(chainMagic),
		cat([]byte(chainMagic), []byte{chainVersion + 1}, valid[len(chainMagic)+1:]), // unknown version
		cat(valid, none), // trailing byte
		cat(two, db2, []byte{3, 2}, copyBoth, []byte{byte(metering.NumFuncs), 1, 1}, rec(1), tail),                         // function id out of range
		cat(two, db2, []byte{3, 2}, seed(1, 1), copyBoth, tail),                                                            // function ids out of order
		cat(two, db2, []byte{4, 2}, copyBoth, copyBoth, tail),                                                              // a function twice
		cat(two, db2, []byte{2, 2}, copyBoth, seed(0), tail),                                                               // a function in no record
		cat(two, db2, []byte{4, 2}, copyBoth, []byte{byte(metering.SeedFilter), 3, 0, 1, 1}, rec(1), rec(1), rec(1), tail), // in more records than scanned
		cat(row(6), none, []byte{1, 3}, []byte{5, 2}, []byte{byte(metering.CopyToIter), 3}, rec(1), rec(1), rec(1), []byte{byte(metering.SeedFilter), 2, 1, 0}, rec(1), rec(1), tail), // record indexes that do not increase
		cat(two, db2, []byte{3, 2}, copyBoth, seed(1, 2), tail),                                      // a record index past the records
		cat(two, db2, []byte{4, 2}, copyBoth, seed(1, 1), tail),                                      // per-record counts that do not sum
		cat(two, db2, []byte{2, 2}, copyBoth, []byte{byte(metering.SeedFilter), 1, 1}, rec(0), tail), // a record with no events
		cat(two, db2, []byte{3, 100}, copyBoth, seed(1, 1), tail),                                    // more functions than bytes
		cat(two, db2, []byte{3, byte(metering.NumFuncs) + 1}, make([]byte, 128)),                     // more functions than the table
		cat(two, db2, []byte{3, 2}, copyBoth, seed(1, 1), none, []byte{0x80, 0x00}),                  // overlong varint
		cat(two, db2, []byte{3, 2}, copyBoth, seed(1, 1), []byte{2, 1, 'b', 0, 1, 'a', 0}, none),     // databases out of order
		cat(two, []byte{1, 4}, []byte{3, 2}, copyBoth, seed(1, 1), tail),                             // 2 records scanned, rounds of 4
		cat(two, []byte{1, 0}, []byte{3, 2}, copyBoth, seed(1, 1), tail),                             // 2 records scanned, rounds of 0
		cat(two, none, []byte{3, 2}, copyBoth, seed(1, 1), tail),                                     // 2 records scanned, no databases
		cat(row(1), none, db2, []byte{3, 2}, copyBoth, seed(1, 1), tail),                             // -1 records scanned
		cat(row(0), none, none, []byte{1, 1}, []byte{byte(metering.CopyToIter), 1}, rec(1), tail),    // events but no records
		cat(row(2), []byte{1}), // a hit with no target
		cat(row(2), []byte{1, 1, 't', 0, 0, 0}, make([]byte, 32), []byte{2}, make([]byte, 4)), // alignment flag 2
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
// bytes, and merges at every thread count from 1 to 17 into workers whose
// ledgers add up to the chain's sums, function by function.
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
		var want metering.Ledger
		for k := range cc.d.sums {
			want[cc.d.sums[k].f] = cc.d.sums[k].total()
		}
		for threads := 1; threads <= 17; threads++ {
			workers := newWorkers(threads)
			cc.d.credit(workers)
			var got metering.Ledger
			for _, acc := range workers {
				for fn, t := range acc.Ledger() {
					got[fn].Add(t)
				}
			}
			if got != want {
				t.Fatalf("merged at %d threads, the workers hold %v of %v", threads, got, want)
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
