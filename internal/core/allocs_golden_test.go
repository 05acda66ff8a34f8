package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/msa"
)

// allocTolerance is how far a measured B/op or allocs/op may sit from its
// pin before TestAllocsGolden fails: ±10 %, and never less than allocSlack
// of either, because the runtime, not the code, moves these counts a
// little: a scan's goroutines, map growth, and which free workspace each
// span of a 2-thread scan draws (one that has not yet seen the span's
// longest record grows its rows; 80 runs at 2 vCPUs showed up to +7.7 %
// on a fresh row).
const allocTolerance = 0.10

// allocSlack is the least slack of a pin: 2 KiB and 8 allocations.
var allocSlack = [2]float64{2 << 10, 8}

// TestAllocsGolden pins the host half of the counted-work ledger: the
// bytes and allocations of one fresh MSA search and of one cached pass
// (every chain served from a chain cache that hits) for every Table II
// sample and PPI pair 0×3, at 1 and 2 threads. Each op is measured once,
// at GOMAXPROCS 2 with the collector off, after a warm-up pass has filled
// the scan workspaces' free list, and compared with testdata/allocs.golden
// within allocTolerance.
// go test ./internal/core -run TestAllocsGolden -update rewrites the file.
func TestAllocsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := suite(t)
	ppi, err := inputs.PPIPair(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ins := append(inputs.Samples(), ppi)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // a 2-thread scan runs two spans on any host
	measure := func(op func() error) (bytes, allocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := op(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	// Warm-up: every input at every width, so the free list holds as many
	// workspaces, grown as far, as a measured search can ask for. A pass of
	// one input alone can run its two spans one after the other on a busy
	// host and leave the list a workspace short.
	for _, T := range []int{1, 2} {
		for _, in := range ins {
			if _, err := msa.Run(in, msa.Options{Threads: T, DBs: s.DBs, Search: s.Search}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var b bytes.Buffer
	fmt.Fprintln(&b, "# sample threads op bytes allocs")
	for _, T := range []int{1, 2} {
		for _, in := range ins {
			opts := msa.Options{Threads: T, DBs: s.DBs, Search: s.Search}
			chains := make(map[string]*msa.CachedChain)
			cached := opts
			cached.ChainCache = func(scope string, chain inputs.Chain, compute func() (*msa.CachedChain, error)) (*msa.CachedChain, bool, error) {
				key := msa.ChainFingerprint(chain)
				if cc := chains[key]; cc != nil {
					return cc, true, nil
				}
				cc, err := compute()
				chains[key] = cc
				return cc, false, err
			}
			if _, err := msa.Run(in, cached); err != nil { // fills the cache
				t.Fatal(err)
			}
			for _, arm := range []struct {
				op   string
				opts msa.Options
			}{{"fresh", opts}, {"cached", cached}} {
				by, n := measure(func() error { _, err := msa.Run(in, arm.opts); return err })
				fmt.Fprintf(&b, "%s %d %s %d %d\n", in.Name, T, arm.op, by, n)
			}
		}
	}
	const path = "testdata/allocs.golden"
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("measured:\n%s", b.Bytes())
	got := allocLines(t, b.String())
	pinned := allocLines(t, string(want))
	if len(got) != len(pinned) {
		t.Fatalf("%d measurements, %s pins %d", len(got), path, len(pinned))
	}
	for key, w := range pinned {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: pinned in %s, not measured", key, path)
			continue
		}
		for k, what := range []string{"bytes", "allocs"} {
			if slack := max(float64(w[k])*allocTolerance, allocSlack[k]); math.Abs(float64(g[k])-float64(w[k])) > slack {
				t.Errorf("%s: %d %s, pinned %d ±%.0f", key, g[k], what, w[k], slack)
			}
		}
	}
}

// allocLines parses "sample threads op bytes allocs" lines, keyed by their
// first three fields.
func allocLines(t *testing.T, text string) map[string][2]uint64 {
	out := make(map[string][2]uint64)
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 5 {
			t.Fatalf("malformed line %q", line)
		}
		var v [2]uint64
		for k := range v {
			n, err := strconv.ParseUint(f[3+k], 10, 64)
			if err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			v[k] = n
		}
		out[strings.Join(f[:3], " ")] = v
	}
	return out
}
