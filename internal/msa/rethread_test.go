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

// shardOracle is the attribution a merge must reproduce: a ScatterFunc
// that scans each database serially over exactly req.Threads spans,
// parallel.Span(n, w, Threads) into req.Workers[w] — the decomposition the
// scan used while its goroutine count was the thread count — and adds
// every event each worker recorded, one by one, to workers[w]'s credits.
// After a Run, workers[w] holds worker w's work across the run's chains,
// summed event by event with no fold.
type shardOracle struct{ workers []*metering.Accumulator }

// tee records every event into both meters.
type tee [2]metering.Meter

func (m tee) Record(ev metering.Event) {
	m[0].Record(ev)
	m[1].Record(ev)
}

// credited is a Meter that adds each event to an accumulator's credits.
type credited struct{ acc *metering.Accumulator }

func (c credited) Record(ev metering.Event) { c.acc.Credit[ev.Func].AddEvent(&ev) }

// onlyCredits reports whether acc is its credits and nothing else: no
// fold, no event.
func onlyCredits(acc *metering.Accumulator) bool {
	return reflect.DeepEqual(acc, &metering.Accumulator{Credit: acc.Credit})
}

func (o *shardOracle) scatter(ctx context.Context, req ScatterRequest) (*hmmer.Result, error) {
	n := len(req.DB.Seqs)
	parts := make([]*hmmer.Result, req.Threads)
	for w := range parts {
		lo, hi := parallel.Span(n, w, req.Threads)
		if lo == hi {
			continue
		}
		src := &hmmer.SliceSource{Seqs: req.DB.Seqs[lo:hi]}
		meter := metering.Scaled(tee{req.Workers[w], credited{o.workers[w]}}, req.ScaleFactor)
		var err error
		parts[w], err = hmmer.ScanRecordsCtx(ctx, req.Profile, req.Query, src, req.DB.TotalResidues(), req.Search, meter)
		if err != nil {
			return nil, err
		}
	}
	return hmmer.MergeResults(req.Query.ID, parts), nil
}

// oracleWorkers runs in at threads through the oracle and returns its
// per-worker sums.
func oracleWorkers(t testing.TB, in *inputs.Input, threads int) []*metering.Accumulator {
	t.Helper()
	o := &shardOracle{workers: newWorkers(threads)}
	if _, err := Run(in, Options{Threads: threads, DBs: dbs(t), Scatter: o.scatter}); err != nil {
		t.Fatal(err)
	}
	return o.workers
}

// sameWorkers reports the first worker of got whose ledger differs from
// want's; -1 when every one matches. A worker's ledger is every integer
// the machine models read of it.
func sameWorkers(got, want []*metering.Accumulator) int {
	if len(got) != len(want) {
		return 0
	}
	for w := range want {
		if got[w].Ledger() != want[w].Ledger() {
			return w
		}
	}
	return -1
}

// TestRethreadSharesEverythingButWorkers: the re-cut result is the source
// with new workers, whose ledgers are the shard oracle's at that count and
// which hold nothing but credits.
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
	for w, acc := range append(out.Workers, res.Workers...) {
		if !onlyCredits(acc) {
			t.Fatalf("worker %d holds more than its credits", w)
		}
	}
	if w := sameWorkers(out.Workers, oracleWorkers(t, in, 4)); w >= 0 {
		t.Fatalf("worker %d of the re-cut differs from the oracle's", w)
	}
}

// TestScanFansOutAtMostOneSpanPerCore: a 16-thread scan runs on
// min(16, GOMAXPROCS) spans — the first that many workers record records,
// between them every record of the database, and the rest none — while a
// Scatter hook is still handed the request's 16 threads and 16 workers.
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
			records := func(acc *metering.Accumulator) uint64 {
				l := acc.Ledger()
				return l[metering.RecordStart].Events
			}
			before := make([]uint64, 16)
			for w, acc := range req.Workers {
				before[w] = records(acc)
			}
			res, err := scanShards(ctx, req)
			want := min(16, procs, len(req.DB.Seqs))
			var total uint64
			for w, acc := range req.Workers {
				n := records(acc) - before[w]
				if got := n > 0; got != (w < want) {
					t.Fatalf("GOMAXPROCS=%d: worker %d recorded %d records, want spans 0..%d only", procs, w, n, want-1)
				}
				total += n
			}
			if total != uint64(len(req.DB.Seqs)) {
				t.Fatalf("GOMAXPROCS=%d: the spans recorded %d records of %d", procs, total, len(req.DB.Seqs))
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

// TestChainRefusesEventsOutsideRecords: a chain's scans are folded per
// record, so a scan span whose events do not begin with a record — the
// first span of the chain or a later one — or a scan that records more
// records than it reports, fails the chain rather than caching sums that
// would credit work to the wrong records.
func TestChainRefusesEventsOutsideRecords(t *testing.T) {
	in, err := inputs.ByName("2PV7")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		worker int
		ev     metering.Event
	}{
		{"an event before the first record", 0, metering.Event{Func: metering.AddBuf}},
		{"an event before a later span's first record", 1, metering.Event{Func: metering.SeedFilter}},
		{"an unreported record", 0, metering.Event{Func: metering.RecordStart}},
	} {
		scans := 0
		hook := func(ctx context.Context, req ScatterRequest) (*hmmer.Result, error) {
			if scans++; scans == 1 {
				req.Workers[tc.worker].Record(tc.ev)
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
// search — into T fresh workers and reads each worker's ledger: what every
// cache hit, checkpoint replay and Rethread pays before BuildRunSpec. An op
// allocates the T workers and credits the chain's sums to them.
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
				var events uint64
				for i := 0; i < b.N; i++ {
					workers := newWorkers(threads)
					d.credit(workers)
					for _, w := range workers {
						work := w.Ledger()
						events += work[metering.CopyToIter].Events
					}
				}
				if events != uint64(b.N*d.cr.Scanned) {
					b.Fatalf("%d records credited over %d ops of %d", events, b.N, d.cr.Scanned)
				}
			})
		}
	}
}
