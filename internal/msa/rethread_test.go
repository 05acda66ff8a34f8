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
	"afsysbench/internal/seq"
)

// shardOracle is the attribution a merge must reproduce: a ScatterFunc
// that scans each database serially over exactly req.Threads spans,
// parallel.Span(n, w, Threads) into req.Workers[w] — the decomposition the
// scan used while its goroutine count was the thread count — and adds
// every event each worker recorded, one by one, to workers[w]'s credits —
// each whole record's scaled seed event among them, which the worker keeps
// as a probe count — with the reader events each of its records cost
// (parentReaderEvents, scaled as the scan's events are). After a Run,
// workers[w] holds worker w's work across the run's chains, summed event
// by event with no fold, no probe count and no reader table. windows
// counts the long-target windows scanned.
type shardOracle struct {
	workers []*metering.Accumulator
	windows int
}

// tee records every event into both meters, and passes record starts and
// probe counts on: a meter that keeps probe counts takes them, the other
// records the seed event.
type tee [2]metering.Meter

func (m tee) Record(ev metering.Event) {
	m[0].Record(ev)
	m[1].Record(ev)
}

func (m tee) RecordStart() {
	metering.RecordStart(m[0])
	metering.RecordStart(m[1])
}

func (m tee) RecordProbes(probes uint64, ev metering.Event) {
	metering.RecordProbes(m[0], probes, ev)
	metering.RecordProbes(m[1], probes, ev)
}

// parentReaderEvents are the three events hmmer.Buffer.Next recorded for
// each record of n residues, in a database of footprint modeled bytes,
// before the reader lane left the scan — written out here as they were,
// so the reader tables are held to them and not to themselves.
func parentReaderEvents(n, footprint uint64) [3]metering.Event {
	return [3]metering.Event{
		{Func: metering.CopyToIter, Instructions: n / 2, Bytes: 2 * n, WorkingSet: footprint, Branches: n / 64},
		{Func: metering.AddBuf, Instructions: 12 * n, Bytes: 2 * n, WorkingSet: 256 * 1024, Branches: n / 16, Allocated: n},
		{Func: metering.SeeBuf, Instructions: 4 * n, Bytes: n, WorkingSet: 256 * 1024, Branches: n},
	}
}

// readerSource hands out src's records, recording each one's
// parentReaderEvents into m as it does.
type readerSource struct {
	src       hmmer.RecordSource
	footprint uint64
	m         metering.Meter
}

func (s readerSource) Next() (*seq.Sequence, bool) {
	rec, ok := s.src.Next()
	if ok {
		for _, ev := range parentReaderEvents(uint64(len(rec.Residues)), s.footprint) {
			s.m.Record(ev)
		}
	}
	return rec, ok
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
		reader := metering.Scaled(credited{o.workers[w]}, req.ScaleFactor)
		src := readerSource{&hmmer.SliceSource{Seqs: req.DB.Seqs[lo:hi]}, uint64(req.DB.ModeledBytes()), reader}
		meter := metering.Scaled(tee{req.Workers[w], credited{o.workers[w]}}, req.ScaleFactor)
		var err error
		parts[w], err = hmmer.ScanRecordsCtx(ctx, req.Profile, req.Query, src, req.DB.TotalResidues(), req.Search, meter)
		if err != nil {
			return nil, err
		}
		o.windows += parts[w].Windows
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
			// A worker holds no fold between scans: runChain takes them.
			records := func(acc *metering.Accumulator) int {
				f := acc.TakeFold()
				if f == nil {
					return 0
				}
				acc.Join(f)
				return f.Records
			}
			before := make([]int, 16)
			for w, acc := range req.Workers {
				before[w] = records(acc)
			}
			res, err := scanShards(ctx, req)
			want := min(16, procs, len(req.DB.Seqs))
			total := 0
			for w, acc := range req.Workers {
				n := records(acc) - before[w]
				if got := n > 0; got != (w < want) {
					t.Fatalf("GOMAXPROCS=%d: worker %d recorded %d records, want spans 0..%d only", procs, w, n, want-1)
				}
				total += n
			}
			if total != len(req.DB.Seqs) {
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
// first span of the chain or a later one — a scan that records more
// records than it reports, one that records the reader lane's work, which
// its database holds, or seed_filter work in a record that has a probe
// count, fails the chain rather than caching sums that would credit work
// to the wrong records, or twice.
func TestChainRefusesEventsOutsideRecords(t *testing.T) {
	in, err := inputs.ByName("2PV7")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		worker int
		after  bool // after the scan: into its last record
		ev     *metering.Event
	}{
		{"an event before the first record", 0, false, &metering.Event{Func: metering.SeedFilter}},
		{"an event before a later span's first record", 1, false, &metering.Event{Func: metering.SeedFilter}},
		{"an unreported record", 0, false, nil},
		{"reader-lane work", 1, true, &metering.Event{Func: metering.CopyToIter}},
		{"seed_filter work beside a probe count", 0, true, &metering.Event{Func: metering.SeedFilter}},
	} {
		scans := 0
		hook := func(ctx context.Context, req ScatterRequest) (*hmmer.Result, error) {
			scans++
			acc := req.Workers[tc.worker]
			do := func() {
				if tc.ev == nil {
					acc.RecordStart()
				} else {
					acc.Record(*tc.ev)
				}
			}
			if scans == 1 && !tc.after {
				do()
			}
			res, err := scanShards(ctx, req)
			if scans == 1 && tc.after {
				do()
			}
			return res, err
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
// cache hit and Rethread pays before BuildRunSpec. An op
// allocates the T workers and credits the chain's sums and its seed lane,
// one walk of its probe counts, to them.
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
		d, err := runChain(context.Background(), in.MSAChains()[0], Options{Threads: 1, DBs: dbs(b)})
		if err != nil {
			b.Fatal(err)
		}
		for _, threads := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/T%d", name, threads), func(b *testing.B) {
				b.ReportAllocs()
				var events uint64
				lanes, err := dbs(b).appendLanes(nil, d)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					workers := newWorkers(threads)
					if err := d.credit(workers, lanes); err != nil {
						b.Fatal(err)
					}
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
