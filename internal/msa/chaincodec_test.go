package msa

import (
	"bytes"
	"slices"
	"strings"
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

// db2 is a round of one scan, database "d" of two records; r0 is a reader
// lane of no instructions.
var db2, r0 = []byte{1, 1, 'd', 2}, []byte{0}

// validChain is a small payload with both kinds of function: a summary row
// of two records scanned, no hits, one database of two records, three
// events — calc_band_9 in record 1 only (one index, as a gap from 0) and
// seed_filter in both records (every record: no indexes) — nothing
// streamed, no serial work.
func validChain() []byte {
	return cat(row(4), []byte{0}, db2, r0, []byte{3, 2},
		[]byte{byte(metering.CalcBand9), 1, 1}, rec(1),
		[]byte{byte(metering.SeedFilter), 2}, rec(1), rec(1),
		[]byte{0}, []byte{0})
}

// version3Chain is validChain as the version before it encoded it: the
// scans unnamed, no reader total, the reader lane's copy_to_iter stored
// with the chain's functions.
func version3Chain() []byte {
	return cat([]byte(chainMagic), []byte{3, 0, 0, 0, 0, 4, 0, 0, 0, 0}, []byte{0}, []byte{1, 2}, []byte{3, 2},
		[]byte{byte(metering.CopyToIter), 2}, rec(1), rec(1),
		[]byte{byte(metering.SeedFilter), 1, 1}, rec(1),
		[]byte{0}, []byte{0})
}

// garbageChains are payloads DecodeCachedChain must refuse: foreign bytes,
// the previous version, then validChain broken one field at a time.
func garbageChains() [][]byte {
	two := cat(row(4), []byte{0}) // a summary row of two records scanned, no hits
	valid := validChain()
	none := []byte{0}
	seedBoth := cat([]byte{byte(metering.SeedFilter), 2}, rec(1), rec(1))
	band := func(head ...byte) []byte { return cat([]byte{byte(metering.CalcBand9)}, head, rec(1)) }
	tail := cat(none, none) // nothing streamed, no serial work
	out := [][]byte{
		nil, {}, {0x00}, []byte("not gob at all"), make([]byte, 512), []byte(chainMagic),
		version3Chain(),
		cat([]byte(chainMagic), []byte{chainVersion + 1}, valid[len(chainMagic)+1:]), // unknown version
		cat(valid, none), // trailing byte
		cat(two, db2, r0, []byte{3, 2}, band(1, 1), []byte{byte(metering.NumFuncs), 2}, rec(1), rec(1), tail),                                                                                    // function id out of range
		cat(two, db2, r0, []byte{3, 2}, seedBoth, band(1, 1), tail),                                                                                                                              // function ids out of order
		cat(two, db2, r0, []byte{4, 2}, seedBoth, seedBoth, tail),                                                                                                                                // a function twice
		cat(two, db2, r0, []byte{5, 2}, []byte{byte(metering.CopyToIter), 2}, rec(1), rec(1), seedBoth, tail),                                                                                    // a reader-lane function
		cat(two, db2, r0, []byte{2, 2}, band(0), seedBoth, tail),                                                                                                                                 // a function in no record
		cat(two, db2, r0, []byte{5, 2}, []byte{byte(metering.CalcBand9), 3, 0, 1, 1}, rec(1), rec(1), rec(1), seedBoth, tail),                                                                    // in more records than scanned
		cat(row(6), none, []byte{1, 1, 'd', 3}, r0, []byte{5, 2}, []byte{byte(metering.CalcBand9), 2, 1, 0}, rec(1), rec(1), []byte{byte(metering.SeedFilter), 3}, rec(1), rec(1), rec(1), tail), // record indexes that do not increase
		cat(two, db2, r0, []byte{3, 2}, band(1, 2), seedBoth, tail),                                                                                                                              // a record index past the records
		cat(two, db2, r0, []byte{4, 2}, band(1, 1), seedBoth, tail),                                                                                                                              // per-record counts that do not sum
		cat(two, db2, r0, []byte{2, 2}, []byte{byte(metering.CalcBand9), 1, 1}, rec(0), seedBoth, tail),                                                                                          // a record with no events
		cat(two, db2, r0, []byte{3, 100}, band(1, 1), seedBoth, tail),                                                                                                                            // more functions than bytes
		cat(two, db2, r0, []byte{3, byte(metering.NumFuncs) + 1}, make([]byte, 128)),                                                                                                             // more functions than the table
		cat(two, db2, r0, []byte{3, 2}, band(1, 1), seedBoth, none, []byte{0x80, 0x00}),                                                                                                          // overlong varint
		cat(two, db2, r0, []byte{3, 2}, band(1, 1), seedBoth, []byte{2, 1, 'b', 0, 1, 'a', 0}, none),                                                                                             // databases out of order
		cat(two, []byte{1, 1, 'd', 4}, r0, []byte{3, 2}, band(1, 1), seedBoth, tail),                                                                                                             // 2 records scanned, rounds of 4
		cat(two, []byte{1, 1, 'd', 0}, r0, []byte{3, 2}, band(1, 1), seedBoth, tail),                                                                                                             // 2 records scanned, rounds of 0
		cat(two, none, r0, []byte{3, 2}, band(1, 1), seedBoth, tail),                                                                                                                             // 2 records scanned, no databases
		cat(row(1), none, db2, r0, []byte{3, 2}, band(1, 1), seedBoth, tail),                                                                                                                     // -1 records scanned
		cat(row(0), none, none, r0, []byte{1, 1}, []byte{byte(metering.SeedFilter), 1}, rec(1), tail),                                                                                            // events but no records
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

// TestDecodeCachedChainRefusesVersion3: a payload of the format before
// the reader lane left the chain — whose sums still hold copy_to_iter,
// addbuf and seebuf — is refused by its version, so a disk tier written by
// an older binary rebuilds its chains rather than crediting that lane
// twice.
func TestDecodeCachedChainRefusesVersion3(t *testing.T) {
	_, err := DecodeCachedChain(version3Chain())
	if err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("a version-3 payload decoded with error %v", err)
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
// ledgers add up, function by function, to the chain's sums and to its
// rounds of the reader lanes it is credited against (numbered lanes, for a
// chain of up to 4 096 records a round: lanes are as long as their
// databases). The seeds are every sample's chains in the current format,
// validChain, the previous version's and the garbage.
func FuzzDecodeCachedChain(f *testing.F) {
	for _, b := range chainPayloads(f) {
		f.Add(b)
	}
	f.Add(validChain())
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
		round := 0
		for _, sc := range cc.d.dbRecs {
			round += sc.records
		}
		if round > 4096 {
			return
		}
		lanes := make([]*readerLane, len(cc.d.dbRecs))
		for i, sc := range cc.d.dbRecs {
			lanes[i] = &readerLane{cum: make([][len(readerFuncs)]metering.Tally, sc.records+1)}
			for r := 1; r <= sc.records; r++ {
				lanes[i].cum[r] = lanes[i].cum[r-1]
				for k, f := range readerFuncs {
					t := metering.Tally{Events: 1, Instructions: uint64(r*(k+1) + i)}
					lanes[i].cum[r][k].Add(t)
					want[f].Add(times(t, uint64(cc.d.cr.Scanned/round)))
				}
			}
		}
		for threads := 1; threads <= 17; threads++ {
			workers := newWorkers(threads)
			cc.d.credit(workers, lanes)
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
