package msa

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
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
// field for field — targets, alignments and per-record sums included —
// account the same work and size, and re-encode to the same bytes.
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

// sameOutcome fails the test when b's chains, features, streamed bytes or
// serial work differ from a's: everything but the workers, which no thread
// count changes.
func sameOutcome(t *testing.T, name string, a, b *Result) {
	t.Helper()
	a, b = deterministicView(a), deterministicView(b)
	switch {
	case !reflect.DeepEqual(a.PerChain, b.PerChain):
		t.Fatalf("%s PerChain diverged", name)
	case !reflect.DeepEqual(a.Features, b.Features):
		t.Fatalf("%s Features diverged", name)
	case !reflect.DeepEqual(a.Streamed, b.Streamed):
		t.Fatalf("%s Streamed diverged", name)
	case a.SerialInstructions != b.SerialInstructions:
		t.Fatalf("%s SerialInstructions diverged", name)
	}
}

// TestChainCacheReplayIsByteIdentical: a run served from the chain cache
// equals a fresh one at every thread count. On every Table II sample, a
// PPI pair and a short RNA chain — protein chains, 6QNR's RNA chain, and
// one short enough that the RNA databases' long targets scan in windows —
// the chains cached by a search at 1, 2 and 3 threads — held in memory,
// and sent through Encode and DecodeCachedChain — are served at
// 1, 2, 3, 4, 8 and 16 threads, and every worker's ledger must equal the
// fold of the events the shard oracle's worker recorded at that count,
// the reader events of its records among them. A last arm traces every
// kept hit (TraceE 0), so the final hits the codec carries have
// alignments.
func TestChainCacheReplayIsByteIdentical(t *testing.T) {
	ppi, err := inputs.PPIPair(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	rna := &inputs.Input{Name: "rna200", Chains: []inputs.Chain{
		{IDs: []string{"R"}, Sequence: seq.NewGenerator(rng.New(200)).Random("rna200", seq.RNA, 200)},
	}}
	serveAt := []int{1, 2, 3, 4, 8, 16}
	windows := 0
	for _, in := range append(inputs.Samples(), ppi, rna) {
		chains := len(in.MSAChains())
		oracle := make(map[int][]*metering.Accumulator)
		var ref *Result
		for _, T := range serveAt {
			o := &shardOracle{workers: newWorkers(T)}
			res, err := Run(in, Options{Threads: T, DBs: dbs(t), Scatter: o.scatter})
			if err != nil {
				t.Fatal(err)
			}
			oracle[T], ref = o.workers, res
			windows += o.windows
		}
		for _, cachedAt := range []int{1, 2, 3} {
			mem := &mapChainCache{entries: make(map[string]*CachedChain)}
			first, err := Run(in, Options{Threads: cachedAt, DBs: dbs(t), ChainCache: mem.fetch})
			if err != nil {
				t.Fatal(err)
			}
			if mem.misses != chains || mem.hits != 0 {
				t.Fatalf("%s cached at T%d: hits=%d misses=%d", in.Name, cachedAt, mem.hits, mem.misses)
			}
			sameOutcome(t, fmt.Sprintf("%s searched at T%d", in.Name, cachedAt), ref, first)
			for _, sz := range mem.lastSizes {
				if sz <= 0 {
					t.Fatalf("%s non-positive SizeBytes", in.Name)
				}
			}
			codec := &mapChainCache{entries: make(map[string]*CachedChain)}
			for key, cc := range mem.entries {
				if codec.entries[key], err = roundTrip(cc); err != nil {
					t.Fatal(err)
				}
			}
			for _, store := range []*mapChainCache{mem, codec} {
				for _, T := range serveAt {
					name := fmt.Sprintf("%s cached at T%d, served at T%d, codec=%v", in.Name, cachedAt, T, store == codec)
					res, err := Run(in, Options{Threads: T, DBs: dbs(t), ChainCache: store.fetch})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.CachedChains != chains || res.FreshWork != 0 || res.CachedWork != first.FreshWork+first.CachedWork {
						t.Fatalf("%s cache accounting: %d cached, fresh=%d cached=%d, searched %d",
							name, res.CachedChains, res.FreshWork, res.CachedWork, first.FreshWork)
					}
					sameOutcome(t, name, ref, res)
					if w := sameWorkers(res.Workers, oracle[T]); w >= 0 {
						t.Fatalf("%s worker %d differs from the oracle's", name, w)
					}
				}
			}
		}
	}

	if windows == 0 {
		t.Fatal("no oracle scan took the long-target window path")
	}

	pv7, _ := inputs.ByName("2PV7")
	opts := Options{Threads: 2, DBs: dbs(t), Scatter: newScanLog(scanShards, true).scatter}
	fresh, err := Run(pv7, opts)
	if err != nil {
		t.Fatal(err)
	}
	cc := &mapChainCache{entries: make(map[string]*CachedChain), viaCodec: true}
	opts.ChainCache = cc.fetch
	for range 2 {
		res, err := Run(pv7, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, "2PV7 traced", fresh, res)
		if w := sameWorkers(res.Workers, fresh.Workers); w >= 0 {
			t.Fatalf("2PV7 traced: worker %d diverged", w)
		}
	}
	if cc.hits != 1 || cc.aligned == 0 {
		t.Fatalf("2PV7 traced: %d hits, %d cached hits carry an alignment", cc.hits, cc.aligned)
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

// TestCachedChainIsWidthFree: what a chain costs and how it encodes are
// functions of its content. Searched at 1 thread, at 16 (min(16,
// GOMAXPROCS) spans) and through the 16-span shard oracle — a scan's
// events recorded by one worker, a few, or sixteen — every chain of every
// Table II sample and a PPI pair encodes to the same bytes and accounts the
// same Work and SizeBytes.
func TestCachedChainIsWidthFree(t *testing.T) {
	ppi, err := inputs.PPIPair(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range append(inputs.Samples(), ppi) {
		var ref map[string]*CachedChain
		var refBytes map[string][]byte
		for _, arm := range []struct {
			threads int
			oracle  bool
		}{{1, false}, {16, false}, {16, true}} {
			store := &mapChainCache{entries: make(map[string]*CachedChain)}
			opts := Options{Threads: arm.threads, DBs: dbs(t), ChainCache: store.fetch}
			if arm.oracle {
				opts.Scatter = (&shardOracle{workers: newWorkers(arm.threads)}).scatter
			}
			if _, err := Run(in, opts); err != nil {
				t.Fatal(err)
			}
			payloads := make(map[string][]byte)
			for key, cc := range store.entries {
				if payloads[key], err = cc.Encode(); err != nil {
					t.Fatal(err)
				}
			}
			if ref == nil {
				ref, refBytes = store.entries, payloads
				continue
			}
			for key, cc := range store.entries {
				want := ref[key]
				if !bytes.Equal(payloads[key], refBytes[key]) || cc.Work() != want.Work() || cc.SizeBytes() != want.SizeBytes() {
					t.Fatalf("%s at T%d (oracle %v): %d B, work %d, size %d; at T1 %d B, work %d, size %d",
						in.Name, arm.threads, arm.oracle, len(payloads[key]), cc.Work(), cc.SizeBytes(),
						len(refBytes[key]), want.Work(), want.SizeBytes())
				}
			}
		}
	}
}
