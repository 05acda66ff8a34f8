package msa

import (
	"errors"
	"reflect"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
)

// mapChainCache is a ChainFetch over a plain map, optionally round-tripping
// every stored snapshot through the gob codec to prove the serialized form
// replays byte-identically.
type mapChainCache struct {
	entries   map[string]*CachedChain
	viaCodec  bool
	hits      int
	misses    int
	lastSizes []int64
}

func (m *mapChainCache) fetch(scope string, chain inputs.Chain, compute func() (*CachedChain, error)) (*CachedChain, bool, error) {
	key := scope + "|" + ChainFingerprint(chain)
	if cc, ok := m.entries[key]; ok {
		m.hits++
		return cc, true, nil
	}
	cc, err := compute()
	if err != nil {
		return nil, false, err
	}
	m.misses++
	m.lastSizes = append(m.lastSizes, cc.SizeBytes())
	if m.viaCodec {
		b, err := cc.Encode()
		if err != nil {
			return nil, false, err
		}
		cc, err = DecodeCachedChain(b)
		if err != nil {
			return nil, false, err
		}
	}
	m.entries[key] = cc
	return cc, false, nil
}

// deterministicView strips the operational counters (cache split, restores)
// that legitimately differ between a fresh and a cache-served run.
func deterministicView(res *Result) *Result {
	v := *res
	v.RestoredChains = 0
	v.CachedChains, v.FreshWork, v.CachedWork = 0, 0, 0
	return &v
}

func TestChainCacheReplayIsByteIdentical(t *testing.T) {
	for _, viaCodec := range []bool{false, true} {
		in, _ := inputs.ByName("1YY9")
		opts := Options{Threads: 2, DBs: dbs(t)}
		fresh, err := Run(in, opts)
		if err != nil {
			t.Fatal(err)
		}

		cc := &mapChainCache{entries: make(map[string]*CachedChain), viaCodec: viaCodec}
		opts.ChainCache = cc.fetch
		first, err := Run(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if cc.misses != len(in.MSAChains()) || cc.hits != 0 {
			t.Fatalf("codec=%v first run: hits=%d misses=%d", viaCodec, cc.hits, cc.misses)
		}
		second, err := Run(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if cc.hits != len(in.MSAChains()) {
			t.Fatalf("codec=%v second run hits=%d, want %d", viaCodec, cc.hits, len(in.MSAChains()))
		}
		if second.CachedChains != len(in.MSAChains()) || second.FreshWork != 0 || second.CachedWork == 0 {
			t.Fatalf("codec=%v cache accounting: %d cached, fresh=%d cached=%d",
				viaCodec, second.CachedChains, second.FreshWork, second.CachedWork)
		}
		if first.FreshWork+first.CachedWork != second.FreshWork+second.CachedWork {
			t.Fatalf("codec=%v total work not cache-independent: %d vs %d",
				viaCodec, first.FreshWork+first.CachedWork, second.FreshWork+second.CachedWork)
		}
		for _, pair := range [][2]*Result{{fresh, first}, {fresh, second}} {
			a, b := deterministicView(pair[0]), deterministicView(pair[1])
			if !reflect.DeepEqual(a.PerChain, b.PerChain) {
				t.Fatalf("codec=%v PerChain diverged", viaCodec)
			}
			if !reflect.DeepEqual(a.Features, b.Features) {
				t.Fatalf("codec=%v Features diverged", viaCodec)
			}
			if !reflect.DeepEqual(a.Streamed, b.Streamed) {
				t.Fatalf("codec=%v Streamed diverged", viaCodec)
			}
			if a.SerialInstructions != b.SerialInstructions {
				t.Fatalf("codec=%v SerialInstructions diverged", viaCodec)
			}
			if len(a.Workers) != len(b.Workers) {
				t.Fatalf("codec=%v worker counts diverged", viaCodec)
			}
			for w := range a.Workers {
				if !reflect.DeepEqual(a.Workers[w].Flat(), b.Workers[w].Flat()) {
					t.Fatalf("codec=%v worker %d events diverged", viaCodec, w)
				}
			}
		}
		for _, sz := range cc.lastSizes {
			if sz <= 0 {
				t.Fatalf("codec=%v non-positive SizeBytes", viaCodec)
			}
		}
	}
}

func TestChainCacheRewritesChainLabel(t *testing.T) {
	// The same sequence content appears as chain "A" in one complex and a
	// differently labeled chain in another; the cached snapshot must serve
	// both with the local label.
	in, _ := inputs.ByName("2PV7")
	chain := in.MSAChains()[0]
	opts := Options{Threads: 1, DBs: dbs(t)}
	cc := &mapChainCache{entries: make(map[string]*CachedChain)}
	opts.ChainCache = cc.fetch
	res, err := Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantID := chain.IDs[0]
	if res.PerChain[0].ChainID != wantID {
		t.Fatalf("fresh label = %q, want %q", res.PerChain[0].ChainID, wantID)
	}
	for _, stored := range cc.entries {
		d := stored.deltaFor("ZZ")
		if d.cr.ChainID != "ZZ" {
			t.Fatalf("deltaFor label = %q, want ZZ", d.cr.ChainID)
		}
		if stored.d.cr.ChainID != wantID {
			t.Fatal("deltaFor mutated the stored snapshot")
		}
	}
}

func TestChainCacheErrorPropagates(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	boom := errors.New("tier exploded")
	opts := Options{Threads: 1, DBs: dbs(t)}
	opts.ChainCache = func(scope string, chain inputs.Chain, compute func() (*CachedChain, error)) (*CachedChain, bool, error) {
		return nil, false, boom
	}
	if _, err := Run(in, opts); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped tier error", err)
	}
}

func TestDecodeCachedChainRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {}, {0x00}, []byte("not gob at all"), make([]byte, 512)} {
		if _, err := DecodeCachedChain(b); err == nil {
			t.Fatalf("garbage %d bytes decoded", len(b))
		}
	}
}

func TestChainFingerprintContentIdentity(t *testing.T) {
	in, _ := inputs.ByName("1YY9")
	chains := in.MSAChains()
	fps := make(map[string]bool)
	for _, c := range chains {
		fps[ChainFingerprint(c)] = true
	}
	if len(fps) != len(chains) {
		t.Fatalf("distinct chains collided: %d fingerprints for %d chains", len(fps), len(chains))
	}
	if ChainFingerprint(chains[0]) != ChainFingerprint(chains[0]) {
		t.Fatal("fingerprint not stable")
	}
}

// TestEncodeRefusesLinkedAccumulator: gob carries only an accumulator's head
// run, so a chain delta whose worker events were assembled with Link must
// fail to encode — never reach the disk tier short — while its work and
// size accounting still cover every event; the flat delta holding the same
// events round-trips intact.
func TestEncodeRefusesLinkedAccumulator(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	store := &mapChainCache{entries: make(map[string]*CachedChain)}
	if _, err := Run(in, Options{Threads: 2, DBs: dbs(t), ChainCache: store.fetch}); err != nil {
		t.Fatal(err)
	}
	for _, flat := range store.entries {
		payload, err := flat.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeCachedChain(payload)
		if err != nil {
			t.Fatal(err)
		}
		if back.Work() != flat.Work() || back.SizeBytes() != flat.SizeBytes() {
			t.Fatalf("round trip changed accounting: work %d→%d size %d→%d", flat.Work(), back.Work(), flat.SizeBytes(), back.SizeBytes())
		}

		// The same events, cut in two and linked.
		d := *flat.d
		d.workers = make([]*metering.Accumulator, len(flat.d.workers))
		for w, acc := range flat.d.workers {
			half := len(acc.Events) / 2
			d.workers[w] = &metering.Accumulator{}
			d.workers[w].Link(&metering.Accumulator{Events: acc.Events[:half]})
			d.workers[w].Link(&metering.Accumulator{Events: acc.Events[half:]})
			if !reflect.DeepEqual(back.d.workers[w].Events, acc.Events) {
				t.Fatalf("worker %d events changed across the codec", w)
			}
		}
		linked := newCachedChain(&d)
		if linked.Work() != flat.Work() || linked.SizeBytes() != flat.SizeBytes() {
			t.Fatalf("linked delta accounts work %d size %d, flat %d / %d", linked.Work(), linked.SizeBytes(), flat.Work(), flat.SizeBytes())
		}
		if _, err := linked.Encode(); err == nil {
			t.Fatal("a linked chain delta encoded")
		}
	}
}
