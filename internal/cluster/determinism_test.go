package cluster

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/msa"
)

var (
	dbsOnce   sync.Once
	dbsShared *msa.DBSet
	dbsErr    error
)

func testDBs(t *testing.T) *msa.DBSet {
	t.Helper()
	dbsOnce.Do(func() {
		dbsShared, dbsErr = msa.BuildDBSet(inputs.Samples(), msa.DefaultDBConfig())
	})
	if dbsErr != nil {
		t.Fatalf("BuildDBSet: %v", dbsErr)
	}
	return dbsShared
}

func testInput(t *testing.T, name string) *inputs.Input {
	t.Helper()
	in, err := inputs.ByName(name)
	if err != nil {
		t.Fatalf("ByName(%s): %v", name, err)
	}
	return in
}

func scanOnce(t *testing.T, in *inputs.Input, dbs *msa.DBSet, threads int, scatter msa.ScatterFunc) *msa.Result {
	t.Helper()
	res, err := msa.Run(in, msa.Options{
		Threads:        threads,
		DBs:            dbs,
		AllowMissingDB: true,
		Scatter:        scatter,
	})
	if err != nil {
		t.Fatalf("msa.Run(threads=%d): %v", threads, err)
	}
	return res
}

// TestScatterGatherBitwiseIdentical is the PR 1 determinism contract
// extended node-wise: the scatter-gathered MSA result — hits, per-chain
// counters, features, streamed bytes, and the per-worker metering event
// streams that the machine models replay into modeled seconds — must be
// deeply identical to the in-process scan at every shard count × thread
// count. If this holds, shard count can never change what a request
// computes or how long the model says it took.
func TestScatterGatherBitwiseIdentical(t *testing.T) {
	dbs := testDBs(t)
	in := testInput(t, "2PV7")
	for _, threads := range []int{1, 3, 4} {
		ref := scanOnce(t, in, dbs, threads, nil)
		for _, shards := range []int{1, 2, 3, 5, 8, 16} {
			c := New(Config{Shards: shards, Fingerprint: dbs.Fingerprint()})
			got := scanOnce(t, in, dbs, threads, c.Scatter)
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("threads=%d shards=%d: scattered result differs from single-node", threads, shards)
			}
			st := c.Stats()
			if st.Scans == 0 || st.Dispatches == 0 {
				t.Errorf("threads=%d shards=%d: no dispatch accounting: %+v", threads, shards, st)
			}
			if st.Failovers != 0 {
				t.Errorf("threads=%d shards=%d: unexpected failovers on healthy cluster: %d", threads, shards, st.Failovers)
			}
		}
	}
}

// TestScatterTableAcrossSamples widens the contract over the sample
// table: every Table II sample, one representative shard count, threads
// above and below the shard count.
func TestScatterTableAcrossSamples(t *testing.T) {
	dbs := testDBs(t)
	cases := []struct {
		sample  string
		threads int
		shards  int
	}{
		{"1YY9", 2, 7},
		{"7RCE", 4, 3},
		{"6QNR", 1, 16},
		{"promo", 3, 2},
	}
	for _, tc := range cases {
		in := testInput(t, tc.sample)
		ref := scanOnce(t, in, dbs, tc.threads, nil)
		c := New(Config{Shards: tc.shards, Fingerprint: dbs.Fingerprint()})
		got := scanOnce(t, in, dbs, tc.threads, c.Scatter)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("%s threads=%d shards=%d: scattered result differs", tc.sample, tc.threads, tc.shards)
		}
	}
}

// TestScatterHonoursTraceCeiling: the per-round traceback ceiling travels to
// every segment in ScatterRequest.Search. Across 8 shards, each scan msa
// asks for returns the hits of the same scan with every kept hit traced —
// all fields but Alignment — carries exactly the alignments at or below its
// ceiling (so a recruiting round stacks the same rows, and the next profile
// is the same), and a chain's last round carries none; the run is still the
// single-node run.
func TestScatterHonoursTraceCeiling(t *testing.T) {
	dbs := testDBs(t)
	for _, sample := range []string{"1YY9", "promo", "6QNR"} {
		in := testInput(t, sample)
		ref := scanOnce(t, in, dbs, 3, nil)
		type scan struct {
			ceiling float64
			hits    []hmmer.Hit
		}
		run := func(traceAll bool) (scans []scan) {
			c := New(Config{Shards: 8, Fingerprint: dbs.Fingerprint()})
			got := scanOnce(t, in, dbs, 3, func(ctx context.Context, req msa.ScatterRequest) (*hmmer.Result, error) {
				ceiling := req.Search.TraceE
				if traceAll {
					req.Search.TraceE = 0
				}
				res, err := c.Scatter(ctx, req)
				if err == nil {
					scans = append(scans, scan{ceiling, res.Hits})
				}
				return res, err
			})
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s, every hit traced %v: scattered result differs from single-node", sample, traceAll)
			}
			return scans
		}
		under, all := run(false), run(true)
		if len(under) != len(all) {
			t.Fatalf("%s: %d scans under the ceiling, %d with every hit traced", sample, len(under), len(all))
		}
		traced, untraced := 0, 0
		for i, sc := range under {
			if sc.ceiling != hmmer.InclusionE && sc.ceiling != hmmer.TraceNone {
				t.Fatalf("%s scan %d: ceiling %g", sample, i, sc.ceiling)
			}
			if len(sc.hits) != len(all[i].hits) {
				t.Fatalf("%s scan %d: %d hits, %d with every hit traced", sample, i, len(sc.hits), len(all[i].hits))
			}
			for j, h := range sc.hits {
				want := all[i].hits[j]
				if want.Alignment == nil {
					t.Fatalf("%s scan %d: the all-traced arm left hit %s untraced", sample, i, want.TargetID)
				}
				if h.EValue > sc.ceiling {
					want.Alignment = nil
					untraced++
				} else {
					traced++
				}
				if !reflect.DeepEqual(h, want) {
					t.Errorf("%s scan %d (ceiling %g): hit %s, E=%g, differs from the all-traced scan's or is traced on the wrong side of the ceiling", sample, i, sc.ceiling, h.TargetID, h.EValue)
				}
			}
		}
		if traced == 0 || untraced == 0 {
			t.Errorf("%s: %d hits traced, %d not; the test is vacuous", sample, traced, untraced)
		}
	}
}

// TestScatterFailoverIdentical kills nodes and asserts the surviving
// cluster still produces the identical result — failover moves work, it
// never changes it — with the failovers counted.
func TestScatterFailoverIdentical(t *testing.T) {
	dbs := testDBs(t)
	in := testInput(t, "2PV7")
	const threads, shards = 3, 8
	ref := scanOnce(t, in, dbs, threads, nil)

	c := New(Config{Shards: shards, Fingerprint: dbs.Fingerprint()})
	c.KillNode(0)
	c.KillNode(5)
	got := scanOnce(t, in, dbs, threads, c.Scatter)
	if !reflect.DeepEqual(ref, got) {
		t.Error("result differs after killing nodes 0 and 5")
	}
	st := c.Stats()
	if st.Failovers == 0 {
		t.Error("no failovers counted with two dead nodes")
	}
	if c.AliveNodes() != shards-2 {
		t.Errorf("AliveNodes = %d, want %d", c.AliveNodes(), shards-2)
	}
	if !st.PerNode[0].Killed || st.PerNode[0].Dispatches != 0 {
		t.Errorf("dead node 0 stats: %+v", st.PerNode[0])
	}

	// Revive and the cluster heals: identical result, no new failovers.
	c.ReviveNode(0)
	c.ReviveNode(5)
	before := c.Stats().Failovers
	got2 := scanOnce(t, in, dbs, threads, c.Scatter)
	if !reflect.DeepEqual(ref, got2) {
		t.Error("result differs after revival")
	}
	if after := c.Stats().Failovers; after != before {
		t.Errorf("failovers grew after revival: %d -> %d", before, after)
	}
}

// TestScatterAllNodesDead asserts a clean error (not a wrong result) when
// no node can serve a shard.
func TestScatterAllNodesDead(t *testing.T) {
	dbs := testDBs(t)
	in := testInput(t, "2PV7")
	c := New(Config{Shards: 3, Fingerprint: dbs.Fingerprint()})
	for i := 0; i < 3; i++ {
		c.KillNode(i)
	}
	_, err := msa.Run(in, msa.Options{Threads: 2, DBs: dbs, AllowMissingDB: true, Scatter: c.Scatter})
	if err == nil {
		t.Fatal("scan succeeded with every node dead")
	}
}

// TestShardPlanInvariants checks the plan arithmetic: shard ranges
// partition [0, n) exactly, owners stay in range, MaxShare is a true
// maximum, and the plan is a pure function of the fingerprint.
func TestShardPlanInvariants(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 7, 16, 33} {
		p := NewShardPlan("fp-test", shards)
		for _, n := range []int{0, 1, 7, 120, 121} {
			next := 0
			maxLen := 0
			for s := 0; s < shards; s++ {
				lo, hi := p.Range(n, s)
				if lo != next || hi < lo {
					t.Fatalf("shards=%d n=%d s=%d: range [%d,%d) does not continue from %d", shards, n, s, lo, hi, next)
				}
				if hi-lo > maxLen {
					maxLen = hi - lo
				}
				next = hi
			}
			if next != n {
				t.Fatalf("shards=%d n=%d: ranges end at %d", shards, n, next)
			}
			if n > 0 {
				if got, want := p.MaxShare(n), float64(maxLen)/float64(n); got != want {
					t.Fatalf("shards=%d n=%d: MaxShare = %v, want %v", shards, n, got, want)
				}
			}
		}
		for s := 0; s < shards; s++ {
			o := p.Owner("uniref_s", s)
			if o < 0 || o >= shards {
				t.Fatalf("Owner out of range: %d", o)
			}
			if o2 := NewShardPlan("fp-test", shards).Owner("uniref_s", s); o2 != o {
				t.Fatal("Owner not stable across identical plans")
			}
		}
	}
	// Different databases rotate ownership differently (load spreading).
	p := NewShardPlan("fp-test", 8)
	same := true
	for s := 0; s < 8; s++ {
		if p.Owner("uniref_s", s) != p.Owner("rfam_s", s) {
			same = false
		}
	}
	if same {
		t.Error("every database maps shards to identical owners; rotation is not spreading load")
	}
}

// TestScatterContextCancel: a canceled scan returns the context error
// instead of a partial result.
func TestScatterContextCancel(t *testing.T) {
	dbs := testDBs(t)
	in := testInput(t, "2PV7")
	c := New(Config{Shards: 4, Fingerprint: dbs.Fingerprint()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := msa.RunCtx(ctx, in, msa.Options{Threads: 2, DBs: dbs, AllowMissingDB: true, Scatter: c.Scatter})
	if err == nil {
		t.Fatal("scan succeeded under canceled context")
	}
}
