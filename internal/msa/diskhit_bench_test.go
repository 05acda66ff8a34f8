package msa

import (
	"context"
	"testing"

	"afsysbench/internal/inputs"
)

// BenchmarkPPIDiskHit is a PPI screen's disk-hit path without the disk:
// every pool chain is searched once and encoded, and then an op is one
// screening pair run at 2 threads with each of its chains decoded from its
// payload (DecodeCachedChain) and merged — what the serving layer pays per
// request when the memory tier misses and the disk tier hits, less the
// file read. The pairs take turns over the whole pool's all-pairs screen.
// make profile-ppi profiles it.
func BenchmarkPPIDiskHit(b *testing.B) {
	pool, err := inputs.PPIAllPairs(inputs.PPIPoolSize)
	if err != nil {
		b.Fatal(err)
	}
	payloads := make(map[string][]byte)
	for _, in := range pool {
		for _, chain := range in.MSAChains() {
			key := ChainFingerprint(chain)
			if _, ok := payloads[key]; ok {
				continue
			}
			d, err := runChain(context.Background(), chain, Options{Threads: 1, DBs: dbs(b)})
			if err != nil {
				b.Fatal(err)
			}
			if payloads[key], err = newCachedChain(d).Encode(); err != nil {
				b.Fatal(err)
			}
		}
	}
	disk := func(_ string, chain inputs.Chain, _ func() (*CachedChain, error)) (*CachedChain, bool, error) {
		cc, err := DecodeCachedChain(payloads[ChainFingerprint(chain)])
		return cc, true, err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(pool[i%len(pool)], Options{Threads: 2, DBs: dbs(b), ChainCache: disk}); err != nil {
			b.Fatal(err)
		}
	}
}
