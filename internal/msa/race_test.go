package msa

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
)

// TestConcurrentRunsShareWorkspacePool exercises the hmmer scan-workspace
// sync.Pool from many directions at once: several Run calls in flight, each
// fanning out worker shards that take and release pooled workspaces. Under
// -race (the Makefile's race target includes this package) this catches any
// scratch buffer escaping its owning shard; without -race it still pins
// result stability across pool reuse.
func TestConcurrentRunsShareWorkspacePool(t *testing.T) {
	in, err := inputs.ByName("2PV7")
	if err != nil {
		t.Fatal(err)
	}
	set := dbs(t)
	baseline, err2 := Run(in, Options{Threads: 4, DBs: set})
	if err2 != nil {
		t.Fatal(err2)
	}

	const runs = 4
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(in, Options{Threads: 4, DBs: set})
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		for c, cr := range results[i].PerChain {
			want := baseline.PerChain[c]
			if cr.Hits != want.Hits || cr.Candidates != want.Candidates ||
				cr.CellsDP != want.CellsDP || cr.CellsPruned != want.CellsPruned {
				t.Errorf("run %d chain %s diverged from baseline: %+v vs %+v",
					i, cr.ChainID, cr, want)
			}
		}
	}
}

// TestConcurrentReplaySharesCachedEvents replays the same CachedChains into
// many results at once — each under its own chain labels, as the serving
// cache does for one pool chain appearing in several complexes — and feeds
// every result to BuildRunSpec. Every replay reads the cached chains' sums
// of their events, so this is the test that the sharing is read-only:
// under -race any write into a cached chain is a report, and afterwards the
// cached sums must equal a deep copy taken before the first replay.
func TestConcurrentReplaySharesCachedEvents(t *testing.T) {
	in, err := inputs.ByName("1YY9")
	if err != nil {
		t.Fatal(err)
	}
	store := &mapChainCache{entries: make(map[string]*CachedChain)}
	opts := Options{Threads: 2, DBs: dbs(t), ChainCache: store.fetch}
	fresh, err := Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	mach := platform.Server()
	want := BuildRunSpec(mach, fresh)
	snapshot := make(map[string][]funcSums)
	for key, cc := range store.entries {
		for _, s := range cc.d.sums {
			s.recs, s.cum = slices.Clone(s.recs), slices.Clone(s.cum)
			snapshot[key] = append(snapshot[key], s)
		}
	}
	// Concurrent replays only read the map.
	opts.ChainCache = func(scope string, chain inputs.Chain, _ func() (*CachedChain, error)) (*CachedChain, bool, error) {
		return store.entries[scope+"|"+ChainFingerprint(chain)], true, nil
	}

	const replays = 8
	var wg sync.WaitGroup
	for g := 0; g < replays; g++ {
		relabeled := *in
		relabeled.Chains = append([]inputs.Chain(nil), in.Chains...)
		for c := range relabeled.Chains {
			relabeled.Chains[c].IDs = []string{fmt.Sprintf("g%d-%d", g, c)}
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := Run(&relabeled, opts)
			if err != nil {
				t.Errorf("replay %d: %v", g, err)
				return
			}
			if res.CachedChains != len(in.MSAChains()) || res.PerChain[0].ChainID != fmt.Sprintf("g%d-0", g) {
				t.Errorf("replay %d: %d cached chains, first label %q", g, res.CachedChains, res.PerChain[0].ChainID)
			}
			for w := range res.Workers {
				if res.Workers[w].Ledger() != fresh.Workers[w].Ledger() {
					t.Errorf("replay %d worker %d: work differs from the searched run's", g, w)
				}
			}
			if got := BuildRunSpec(mach, res); !reflect.DeepEqual(got, want) {
				t.Errorf("replay %d: run spec differs from the searched run's", g)
			}
		}(g)
	}
	wg.Wait()

	for key, cc := range store.entries {
		if !reflect.DeepEqual(cc.d.sums, snapshot[key]) {
			t.Fatalf("cached chain %q's sums changed under replay", key)
		}
	}
}
