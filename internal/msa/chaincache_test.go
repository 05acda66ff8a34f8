package msa

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
)

// mapChainCache is a ChainFetch over a plain map, optionally round-tripping
// every stored snapshot through the chain codec to prove the serialized
// form replays byte-identically.
type mapChainCache struct {
	entries   map[string]*CachedChain
	viaCodec  bool
	hits      int
	misses    int
	aligned   int // hits carrying an Alignment across the codec
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
		if cc, err = roundTrip(cc); err != nil {
			return nil, false, err
		}
		for _, h := range cc.d.hits {
			if h.Alignment != nil {
				m.aligned++
			}
		}
	}
	m.entries[key] = cc
	return cc, false, nil
}

// roundTrip sends cc through the codec. The decoded snapshot must equal cc
// field for field — targets and alignments included — account the same
// work and size, and re-encode to the same bytes.
func roundTrip(cc *CachedChain) (*CachedChain, error) {
	b, err := cc.Encode()
	if err != nil {
		return nil, err
	}
	back, err := DecodeCachedChain(b)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(back.d, cc.d) {
		return nil, fmt.Errorf("chain %s changed across the codec", cc.d.cr.ChainID)
	}
	if back.Work() != cc.Work() || back.SizeBytes() != cc.SizeBytes() {
		return nil, fmt.Errorf("chain %s: the codec changed work %d→%d, size %d→%d",
			cc.d.cr.ChainID, cc.Work(), back.Work(), cc.SizeBytes(), back.SizeBytes())
	}
	if again, err := back.Encode(); err != nil || !bytes.Equal(again, b) {
		return nil, fmt.Errorf("chain %s does not re-encode to its payload (%v)", cc.d.cr.ChainID, err)
	}
	return back, nil
}

// deterministicView strips the operational counters (cache split, restores)
// that legitimately differ between a fresh and a cache-served run.
func deterministicView(res *Result) *Result {
	v := *res
	v.RestoredChains = 0
	v.CachedChains, v.FreshWork, v.CachedWork = 0, 0, 0
	return &v
}

// TestChainCacheReplayIsByteIdentical: a run served from the chain cache
// equals a fresh one. The codec arm stores every chain through Encode and
// DecodeCachedChain, on every Table II sample and a PPI pair at 1 and 2
// threads, and once with every kept hit traced (TraceE 0), so the final
// hits the codec carries have alignments.
func TestChainCacheReplayIsByteIdentical(t *testing.T) {
	type arm struct {
		in                 *inputs.Input
		threads            int
		viaCodec, traceAll bool
	}
	yy9, _ := inputs.ByName("1YY9")
	pv7, _ := inputs.ByName("2PV7")
	ppi, err := inputs.PPIPair(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	arms := []arm{{in: yy9, threads: 2}, {in: pv7, threads: 2, viaCodec: true, traceAll: true}}
	for _, in := range append(inputs.Samples(), ppi) {
		for _, threads := range []int{1, 2} {
			arms = append(arms, arm{in: in, threads: threads, viaCodec: true})
		}
	}
	for _, a := range arms {
		name := fmt.Sprintf("%s/T%d/codec=%v/traceAll=%v", a.in.Name, a.threads, a.viaCodec, a.traceAll)
		in := a.in
		opts := Options{Threads: a.threads, DBs: dbs(t)}
		if a.traceAll {
			opts.Scatter = newScanLog(scanShards, true).scatter
		}
		fresh, err := Run(in, opts)
		if err != nil {
			t.Fatal(err)
		}

		cc := &mapChainCache{entries: make(map[string]*CachedChain), viaCodec: a.viaCodec}
		opts.ChainCache = cc.fetch
		first, err := Run(in, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cc.misses != len(in.MSAChains()) || cc.hits != 0 {
			t.Fatalf("%s first run: hits=%d misses=%d", name, cc.hits, cc.misses)
		}
		second, err := Run(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if cc.hits != len(in.MSAChains()) {
			t.Fatalf("%s second run hits=%d, want %d", name, cc.hits, len(in.MSAChains()))
		}
		if second.CachedChains != len(in.MSAChains()) || second.FreshWork != 0 || second.CachedWork == 0 {
			t.Fatalf("%s cache accounting: %d cached, fresh=%d cached=%d",
				name, second.CachedChains, second.FreshWork, second.CachedWork)
		}
		if first.FreshWork+first.CachedWork != second.FreshWork+second.CachedWork {
			t.Fatalf("%s total work not cache-independent: %d vs %d",
				name, first.FreshWork+first.CachedWork, second.FreshWork+second.CachedWork)
		}
		if a.traceAll && cc.aligned == 0 {
			t.Fatalf("%s: no cached hit carries an alignment", name)
		}
		for _, pair := range [][2]*Result{{fresh, first}, {fresh, second}} {
			a, b := deterministicView(pair[0]), deterministicView(pair[1])
			if !reflect.DeepEqual(a.PerChain, b.PerChain) {
				t.Fatalf("%s PerChain diverged", name)
			}
			if !reflect.DeepEqual(a.Features, b.Features) {
				t.Fatalf("%s Features diverged", name)
			}
			if !reflect.DeepEqual(a.Streamed, b.Streamed) {
				t.Fatalf("%s Streamed diverged", name)
			}
			if a.SerialInstructions != b.SerialInstructions {
				t.Fatalf("%s SerialInstructions diverged", name)
			}
			if len(a.Workers) != len(b.Workers) {
				t.Fatalf("%s worker counts diverged", name)
			}
			for w := range a.Workers {
				if !reflect.DeepEqual(a.Workers[w].Flat(), b.Workers[w].Flat()) {
					t.Fatalf("%s worker %d events diverged", name, w)
				}
			}
		}
		for _, sz := range cc.lastSizes {
			if sz <= 0 {
				t.Fatalf("%s non-positive SizeBytes", name)
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

// TestEncodeRefusesLinkedAccumulator: the codec writes only an
// accumulator's head run, so a chain delta whose worker events were
// assembled with Link must fail to encode — never reach the disk tier
// short — while its work and size accounting still cover every event; the
// flat delta holding the same events round-trips intact.
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
