package msa

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
	"afsysbench/internal/parallel"
)

// shardOracle is the attribution a re-cut must reproduce: a ScatterFunc
// that scans each database serially over exactly req.Threads spans,
// parallel.Span(n, w, Threads) into req.Workers[w] — the decomposition the
// scan used while its goroutine count was the thread count — and keeps a
// copy of what each worker recorded. After a Run, workers[w] is worker w's
// stream across the run's chains, taken before any re-cut.
type shardOracle struct{ workers []*metering.Accumulator }

func (o *shardOracle) scatter(ctx context.Context, req ScatterRequest) (*hmmer.Result, error) {
	n := len(req.DB.Seqs)
	parts := make([]*hmmer.Result, req.Threads)
	for w := range parts {
		lo, hi := parallel.Span(n, w, req.Threads)
		if lo == hi {
			continue
		}
		acc := req.Workers[w]
		from := len(acc.Events)
		src := &hmmer.SliceSource{Seqs: req.DB.Seqs[lo:hi]}
		var err error
		parts[w], err = hmmer.ScanRecordsCtx(ctx, req.Profile, req.Query, src, req.DB.TotalResidues(), req.Search, metering.Scaled(acc, req.ScaleFactor))
		if err != nil {
			return nil, err
		}
		o.workers[w].Events = append(o.workers[w].Events, acc.Events[from:]...)
	}
	return hmmer.MergeResults(req.Query.ID, parts), nil
}

// oracleWorkers runs in at threads through the oracle and returns its
// per-worker streams.
func oracleWorkers(t testing.TB, in *inputs.Input, threads int) []*metering.Accumulator {
	t.Helper()
	o := &shardOracle{workers: newWorkers(threads)}
	if _, err := Run(in, Options{Threads: threads, DBs: dbs(t), Scatter: o.scatter}); err != nil {
		t.Fatal(err)
	}
	return o.workers
}

// sameWorkers reports the first worker of got whose events, or ByFunc,
// differ from want's; -1 when every one matches.
func sameWorkers(got, want []*metering.Accumulator) int {
	if len(got) != len(want) {
		return 0
	}
	for w := range want {
		if !reflect.DeepEqual(got[w].Flat(), want[w].Flat()) || !reflect.DeepEqual(got[w].ByFunc(), want[w].ByFunc()) {
			return w
		}
	}
	return -1
}

// TestRethreadSharesEverythingButWorkers: the re-cut result is the source
// with new workers, and those workers link the source's events in place.
func TestRethreadSharesEverythingButWorkers(t *testing.T) {
	in, err := inputs.ByName("1YY9")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(in, Options{Threads: 1, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Rethread(4)
	cp := *out
	cp.Workers = res.Workers
	if !reflect.DeepEqual(&cp, res) || out.Features != res.Features || &out.PerChain[0] != &res.PerChain[0] {
		t.Fatal("Rethread changed or copied a field other than Workers")
	}
	if &out.Workers[0].Events[0] != &res.Workers[0].Events[0] {
		t.Fatal("worker 0's first run is not the source's events")
	}
	if w := sameWorkers(out.Workers, oracleWorkers(t, in, 4)); w >= 0 {
		t.Fatalf("worker %d of the re-cut differs from the oracle's", w)
	}
}

// TestScanFansOutAtMostOneSpanPerCore: a 16-thread scan runs on
// min(16, GOMAXPROCS) spans — the first that many workers receive events,
// the rest none — while a Scatter hook is still handed the request's 16
// threads and 16 workers.
func TestScanFansOutAtMostOneSpanPerCore(t *testing.T) {
	in, err := inputs.ByName("2PV7")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		scans := 0
		hook := func(ctx context.Context, req ScatterRequest) (*hmmer.Result, error) {
			if req.Threads != 16 || len(req.Workers) != 16 {
				t.Fatalf("GOMAXPROCS=%d: the hook got %d threads, %d workers; want 16", procs, req.Threads, len(req.Workers))
			}
			before := make([]int, 16)
			for w, acc := range req.Workers {
				before[w] = acc.Len()
			}
			res, err := scanShards(ctx, req)
			want := min(16, procs, len(req.DB.Seqs))
			for w, acc := range req.Workers {
				if got := acc.Len() > before[w]; got != (w < want) {
					t.Fatalf("GOMAXPROCS=%d: worker %d recorded=%v, want spans 0..%d only", procs, w, got, want-1)
				}
			}
			scans++
			return res, err
		}
		if _, err := Run(in, Options{Threads: 16, DBs: dbs(t), Scatter: hook}); err != nil {
			t.Fatal(err)
		}
		if scans == 0 {
			t.Fatal("no scan reached the hook")
		}
	}
}

// TestChainRefusesEventsOutsideRecords: a chain's stream is cut at record
// starts, so a scan whose events do not begin with a record, or that
// records more records than it reports, fails the chain rather than
// caching a stream a re-cut would drop events from.
func TestChainRefusesEventsOutsideRecords(t *testing.T) {
	in, err := inputs.ByName("2PV7")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ev   metering.Event
	}{
		{"an event before the first record", metering.Event{Func: "addbuf"}},
		{"an unreported record", metering.Event{Func: recordStart}},
	} {
		hook := func(ctx context.Context, req ScatterRequest) (*hmmer.Result, error) {
			if req.Workers[0].Len() == 0 {
				req.Workers[0].Record(tc.ev)
			}
			return scanShards(ctx, req)
		}
		if _, err := Run(in, Options{Threads: 2, DBs: dbs(t), Scatter: hook}); err == nil {
			t.Errorf("%s: the chain was accepted", tc.name)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}

// BenchmarkChainReplay merges one cached chain — 2PV7's, 6QNR's first and
// a PPI pool chain, each searched at one thread as the benchmark workloads
// search — into T fresh workers: the re-cut every cache hit, checkpoint
// replay and Rethread takes. An op allocates the T workers and links the
// chain into them.
func BenchmarkChainReplay(b *testing.B) {
	ppi, err := inputs.PPIPair(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"2PV7", "6QNR", ppi.Name} {
		in, err := inputs.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		d, err := runChain(context.Background(), in.MSAChains()[0], Options{Threads: 1, Rounds: 2, DBs: dbs(b)})
		if err != nil {
			b.Fatal(err)
		}
		for _, threads := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/T%d", name, threads), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d.link(newWorkers(threads))
				}
			})
		}
	}
}
