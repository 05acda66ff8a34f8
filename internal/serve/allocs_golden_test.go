package serve

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
	"time"

	"afsysbench/internal/cache"
)

// cachedAllocSlack is how far a cached request's measured bytes and
// allocations may sit from their pins: 3 % of the bytes, 4 allocations.
var cachedAllocSlack = [2]float64{0.03, 4}

// TestCachedRequestAllocsGolden pins what one in-process request costs the
// heap when every MSA chain it needs is already in the memory tier: Submit,
// then wait on Done, for 2PV7 (one chain) and 1YY9 (three). The server runs
// one MSA and one GPU worker at GOMAXPROCS 2 with the collector off; each
// request is measured five times after two warm-up passes, and the least
// counts are compared with testdata/allocs.golden. go test ./internal/serve
// -run TestCachedRequestAllocsGolden -update rewrites the file.
func TestCachedRequestAllocsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := newTestServer(t, Config{Threads: 2, MSAWorkers: 1, GPUWorkers: 1, Cache: cache.New(0)})
	s.Start()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	request := func(sample string) {
		id, err := s.Submit(Request{Sample: sample})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-s.Done(id):
		case <-time.After(time.Minute):
			t.Fatalf("%s never finished", id)
		}
		if st, _ := s.Status(id); st.State != "done" || !st.CacheHit {
			t.Fatalf("%s: state %s, cache hit %v (%s)", id, st.State, st.CacheHit, st.Error)
		}
	}
	samples := []string{"2PV7", "1YY9"}
	for _, sample := range samples {
		if _, err := s.Submit(Request{Sample: sample}); err != nil { // fills the cache
			t.Fatal(err)
		}
	}
	for range 2 {
		for _, sample := range samples {
			request(sample)
		}
	}
	var b bytes.Buffer
	fmt.Fprintln(&b, "# sample bytes allocs")
	for _, sample := range samples {
		by, n := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			request(sample)
			runtime.ReadMemStats(&after)
			by, n = min(by, after.TotalAlloc-before.TotalAlloc), min(n, after.Mallocs-before.Mallocs)
		}
		fmt.Fprintf(&b, "%s %d %d\n", sample, by, n)
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
	got, pinned := cachedAllocLines(t, b.String()), cachedAllocLines(t, string(want))
	if len(got) != len(pinned) {
		t.Fatalf("%d measurements, %s pins %d", len(got), path, len(pinned))
	}
	for sample, w := range pinned {
		g, ok := got[sample]
		if !ok {
			t.Errorf("%s: pinned in %s, not measured", sample, path)
			continue
		}
		slack := [2]float64{float64(w[0]) * cachedAllocSlack[0], cachedAllocSlack[1]}
		for k, what := range []string{"bytes", "allocs"} {
			if math.Abs(float64(g[k])-float64(w[k])) > slack[k] {
				t.Errorf("%s: %d %s, pinned %d ±%.0f", sample, g[k], what, w[k], slack[k])
			}
		}
	}
}

// cachedAllocLines parses "sample bytes allocs" lines, keyed by sample.
func cachedAllocLines(t *testing.T, text string) map[string][2]uint64 {
	out := make(map[string][2]uint64)
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 3 {
			t.Fatalf("malformed line %q", line)
		}
		var v [2]uint64
		for k := range v {
			n, err := strconv.ParseUint(f[1+k], 10, 64)
			if err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			v[k] = n
		}
		out[f[0]] = v
	}
	return out
}
