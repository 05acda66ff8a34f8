package msa

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
	"unsafe"

	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
	"afsysbench/internal/seq"
)

var update = flag.Bool("update", false, "rewrite testdata/chains.golden from this tree")

// heldBytes counts what a chain holds by the census rule: slice lengths ×
// element sizes — its hits, their targets (ID and residues) and
// alignments, its scan sequence, its per-function sums and its probe
// column. No header and no map is counted.
func heldBytes(d *chainDelta) int64 {
	n := int64(len(d.hits)) * int64(unsafe.Sizeof(hmmer.Hit{}))
	for _, h := range d.hits {
		if t := h.Target; t != nil {
			n += int64(unsafe.Sizeof(seq.Sequence{})) + int64(len(t.ID)) + int64(len(t.Residues))
		}
		if a := h.Alignment; a != nil {
			n += int64(unsafe.Sizeof(hmmer.Alignment{})) + int64(len(a.Pairs))*int64(unsafe.Sizeof(hmmer.AlignedPair{}))
		}
	}
	n += int64(len(d.dbRecs)) * int64(unsafe.Sizeof(d.dbRecs[0]))
	n += int64(len(d.sums)) * int64(unsafe.Sizeof(funcSums{}))
	for k := range d.sums {
		s := &d.sums[k]
		n += int64(len(s.recs))*4 + int64(len(s.cum))*int64(unsafe.Sizeof(metering.Tally{}))
	}
	return n + int64(len(d.probes))*4
}

// orderedChainCache is a ChainFetch that computes every chain and keeps
// them in the order the run asked for them.
type orderedChainCache struct{ chains []*CachedChain }

func (o *orderedChainCache) fetch(_ string, _ inputs.Chain, compute func() (*CachedChain, error)) (*CachedChain, bool, error) {
	cc, err := compute()
	if err == nil {
		o.chains = append(o.chains, cc)
	}
	return cc, false, err
}

// TestChainCensusGolden pins what every chain of each Table II sample and
// of PPI pair 0×3 costs: the records its scans folded, the charge the
// memory tier takes (SizeBytes), the modeled work (Work), the bytes it
// holds (heldBytes) and its encoded payload's length. A chain is
// thread-free, so one thread count covers them all. go test
// ./internal/msa -run TestChainCensusGolden -update rewrites the file.
func TestChainCensusGolden(t *testing.T) {
	ppi, err := inputs.PPIPair(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintln(&b, "# sample chain records size_bytes work held_bytes encoded_bytes")
	for _, in := range append(inputs.Samples(), ppi) {
		store := &orderedChainCache{}
		if _, err := Run(in, Options{Threads: 2, DBs: dbs(t), ChainCache: store.fetch}); err != nil {
			t.Fatal(err)
		}
		for _, cc := range store.chains {
			payload, err := cc.Encode()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %s %d %d %d %d %d\n", in.Name, cc.d.cr.ChainID, cc.d.cr.Scanned,
				cc.SizeBytes(), cc.Work(), heldBytes(cc.d), len(payload))
		}
	}
	const path = "testdata/chains.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, g, w)
			}
		}
	}
}
