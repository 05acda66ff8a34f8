package core

import (
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/msa"
	"afsysbench/internal/platform"
)

// BenchmarkHotMix is one pass of the repo benchmark's hot_cache request mix
// (bench/w_http.go hotMix: 2PV7, 7RCE, 1YY9) through RunPipeline behind a
// chain cache that always hits — what a fully cached request still pays
// once the daemon, HTTP and the scheduler are taken away: the memory
// verdict, the chain merge, the machine-model replay, the inference model.
// The hook keys a chain the way serve.chainFetcher does, with the database
// set's fingerprint taken once, as a server takes it at construction.
// It exists to be profiled: `make profile-hot` answers "where does a cached
// request's time go", as profile-cold does for a cold one.
func BenchmarkHotMix(b *testing.B) {
	s, err := NewSuite()
	if err != nil {
		b.Fatal(err)
	}
	var mix []*inputs.Input
	for _, name := range []string{"2PV7", "7RCE", "1YY9"} {
		in, err := inputs.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		mix = append(mix, in)
	}
	chains := make(map[string]*msa.CachedChain)
	dbs := s.DBs.Fingerprint()
	pass := func() {
		for _, in := range mix {
			opts := PipelineOptions{Threads: 2, WarmStart: true, FreshMSA: true}
			opts.ChainCache = func(scope string, chain inputs.Chain, compute func() (*msa.CachedChain, error)) (*msa.CachedChain, bool, error) {
				key := dbs + "|" + scope + "|" + msa.ChainFingerprint(chain)
				if cc := chains[key]; cc != nil {
					return cc, true, nil
				}
				cc, err := compute()
				chains[key] = cc
				return cc, false, err
			}
			if _, err := s.RunPipeline(in, platform.Server(), opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass() // the searches: every later pass replays them
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
