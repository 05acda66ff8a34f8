package cluster

import (
	"math"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/seq"
)

// TestScatterNetCostPinned pins the modeled network cost of a fixed
// scatter: 2PV7, then 6QNR's RNA chain alone (long targets scan in
// windows), over 8 shards at 2 threads. NetBytes prices what each dispatch
// sends back, per metered event and hit, so a change to what a segment's
// records cost or to how it is priced moves these numbers. NetSeconds is pinned
// as its float64 bits: Scatter adds a scan's RPC costs in shard order, so
// the scans of one run in sequence sum the same floats in the same order.
func TestScatterNetCostPinned(t *testing.T) {
	dbs := testDBs(t)
	qnr := testInput(t, "6QNR")
	var rna *inputs.Input
	for _, ch := range qnr.MSAChains() {
		if ch.Sequence.Type == seq.RNA {
			rna = &inputs.Input{Name: "6QNR_R", Chains: []inputs.Chain{ch}}
		}
	}
	if rna == nil {
		t.Fatal("6QNR has no RNA chain")
	}
	c := New(Config{Shards: 8, Fingerprint: dbs.Fingerprint()})
	for _, in := range []*inputs.Input{testInput(t, "2PV7"), rna} {
		scanOnce(t, in, dbs, 2, c.Scatter)
	}
	st := c.Stats()
	const (
		wantOps     = 56
		wantBytes   = 1120000
		wantSeconds = 0x3f87b3c281610544
	)
	if st.NetOps != wantOps || st.NetBytes != wantBytes || math.Float64bits(st.NetSeconds) != wantSeconds {
		t.Errorf("net ops %d, bytes %d, seconds %#x (%g); want %d, %d, %#x",
			st.NetOps, st.NetBytes, math.Float64bits(st.NetSeconds), st.NetSeconds, wantOps, wantBytes, uint64(wantSeconds))
	}
}
