package core

import (
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
)

// BenchmarkColdMix is one pass of the repo benchmark's cold_msa request mix
// (bench/w_http.go coldMix: 4× 2PV7, 4× 7RCE, 2× 1YY9, promo, 6QNR) through
// RunPipeline with FreshMSA at one thread — the work a cold request pays,
// without the daemon, HTTP or a second worker around it. It exists to be
// profiled: `make profile-cold` answers "where does cold time go".
func BenchmarkColdMix(b *testing.B) {
	s, err := NewSuite()
	if err != nil {
		b.Fatal(err)
	}
	var mix []*inputs.Input
	for _, name := range []string{
		"2PV7", "2PV7", "2PV7", "2PV7",
		"7RCE", "7RCE", "7RCE", "7RCE",
		"1YY9", "1YY9",
		"promo",
		"6QNR",
	} {
		in, err := inputs.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		mix = append(mix, in)
	}
	mach := platform.Server()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range mix {
			if _, err := s.RunPipeline(in, mach, PipelineOptions{Threads: 1, FreshMSA: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
