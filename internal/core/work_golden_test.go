package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
)

var update = flag.Bool("update", false, "rewrite testdata/work.golden from this tree")

// TestCountedWorkGolden pins the work the MSA phase counts, exactly: for
// every Table II sample and one PPI pair, at 1, 2 and 8 threads, per worker
// and function, the event count and the summed Instructions, Bytes,
// Branches and Allocated. These integers are what every modeled second is
// computed from, so a change that moves one shows up here as a diff of
// counts before it shows up as a drift of seconds. go test ./internal/core
// -run TestCountedWorkGolden -update rewrites the file.
func TestCountedWorkGolden(t *testing.T) {
	s := suite(t)
	ppi, err := inputs.PPIPair(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintln(&b, "# sample threads worker function events instructions bytes branches allocated")
	for _, in := range append(inputs.Samples(), ppi) {
		for _, T := range []int{1, 2, 8} {
			res, err := s.MSAResult(in, T)
			if err != nil {
				t.Fatal(err)
			}
			for w, acc := range res.Workers {
				writeWorkerWork(&b, fmt.Sprintf("%s %d %d", in.Name, T, w), acc)
			}
		}
	}
	const path = "testdata/work.golden"
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

// writeWorkerWork writes one line per function the worker counted work
// for, in function-name order.
func writeWorkerWork(b *bytes.Buffer, prefix string, acc *metering.Accumulator) {
	for f, t := range acc.Ledger() {
		if t.Events > 0 {
			fmt.Fprintf(b, "%s %s %d %d %d %d %d\n", prefix, metering.Func(f), t.Events, t.Instructions, t.Bytes, t.Branches, t.Allocated)
		}
	}
}
