package metering_test

import (
	"context"
	"reflect"
	"testing"

	"afsysbench/internal/core"
	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
	"afsysbench/internal/msa"
	"afsysbench/internal/parallel"
	"afsysbench/internal/seq"
	"afsysbench/internal/xla"
)

// recordingScatter is an msa.ScatterFunc that scans each database
// serially over exactly req.Threads spans, span w into req.Workers[w], and
// keeps a copy of every event each worker recorded, in order, with each
// record's reader events (hmmer.ReaderEvents, scaled as the scan's are)
// where the record starts: what the worker's span cost in full.
type recordingScatter struct{ events []metering.Log }

// tee records every event into both meters, and passes record starts on.
type tee [2]metering.Meter

func (m tee) Record(ev metering.Event) {
	m[0].Record(ev)
	m[1].Record(ev)
}

func (m tee) RecordStart() {
	metering.RecordStart(m[0])
	metering.RecordStart(m[1])
}

// readerSource hands out src's records, recording each one's reader
// events into m as it does.
type readerSource struct {
	src       hmmer.RecordSource
	footprint uint64
	m         metering.Meter
}

func (s readerSource) Next() (*seq.Sequence, bool) {
	rec, ok := s.src.Next()
	if ok {
		for _, ev := range hmmer.ReaderEvents(uint64(len(rec.Residues)), s.footprint) {
			s.m.Record(ev)
		}
	}
	return rec, ok
}

func (o *recordingScatter) scatter(ctx context.Context, req msa.ScatterRequest) (*hmmer.Result, error) {
	n := len(req.DB.Seqs)
	parts := make([]*hmmer.Result, req.Threads)
	for w := range parts {
		lo, hi := parallel.Span(n, w, req.Threads)
		reader := metering.Scaled(&o.events[w], req.ScaleFactor)
		src := readerSource{&hmmer.SliceSource{Seqs: req.DB.Seqs[lo:hi]}, uint64(req.DB.ModeledBytes()), reader}
		meter := metering.Scaled(tee{req.Workers[w], &o.events[w]}, req.ScaleFactor)
		var err error
		parts[w], err = hmmer.ScanRecordsCtx(ctx, req.Profile, req.Query, src, req.DB.TotalResidues(), req.Search, meter)
		if err != nil {
			return nil, err
		}
	}
	return hmmer.MergeResults(req.Query.ID, parts), nil
}

// TestByFuncMatchesMapWalkOnSamples holds the ledgers the machine model
// really reads — every sample's MSA workers at 1, 2 and 4 threads, credited
// from the chains' per-record sums without an event — to a map walk of the
// events each worker recorded. A count that moves fails here before it
// moves a modeled second.
func TestByFuncMatchesMapWalkOnSamples(t *testing.T) {
	s, err := core.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	streams := 0
	for _, in := range inputs.Samples() {
		for _, threads := range []int{1, 2, 4} {
			o := &recordingScatter{events: make([]metering.Log, threads)}
			res, err := msa.Run(in, msa.Options{Threads: threads, DBs: s.DBs, Search: s.Search, Scatter: o.scatter})
			if err != nil {
				t.Fatal(err)
			}
			for w, acc := range res.Workers {
				if !reflect.DeepEqual(acc, &metering.Accumulator{Credit: acc.Credit}) {
					t.Fatalf("%s at %d threads, worker %d holds more than its credits", in.Name, threads, w)
				}
				if d := metering.DiffLedger(acc.Ledger(), metering.MapWalk(o.events[w])); d != "" {
					t.Fatalf("%s at %d threads, worker %d: %s", in.Name, threads, w, d)
				}
				if len(o.events[w]) > 0 {
					streams++
				}
			}
		}
	}
	if streams == 0 {
		t.Fatal("no sample produced a worker stream; the comparison is vacuous")
	}
}

// TestEveryRecordedEventHasAKnownFunc: every event a real scan, its
// databases' reader lane or a compile records names a function of the
// table, and between them they use every function but viterbi_full (the
// unbanded kernel no search runs).
func TestEveryRecordedEventHasAKnownFunc(t *testing.T) {
	s, err := core.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[metering.Func]bool)
	check := func(what string, evs []metering.Event) {
		for _, ev := range evs {
			if ev.Func >= metering.NumFuncs {
				t.Fatalf("%s recorded function id %d, past the table", what, ev.Func)
			}
			seen[ev.Func] = true
		}
	}
	for _, name := range []string{"2PV7", "promo"} {
		in, err := inputs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		o := &recordingScatter{events: make([]metering.Log, 2)}
		if _, err := msa.Run(in, msa.Options{Threads: 2, DBs: s.DBs, Search: s.Search, Scatter: o.scatter}); err != nil {
			t.Fatal(err)
		}
		for _, evs := range o.events {
			check(name, evs)
		}
	}
	var events metering.Log
	if _, err := xla.Compile(xla.BuildInferenceGraph(s.Model.PF, s.Model.DF, 64, 1), &events); err != nil {
		t.Fatal(err)
	}
	check("xla.Compile", events)
	for f := range metering.NumFuncs {
		if !seen[f] && f != metering.ViterbiFull {
			t.Errorf("no scan or compile recorded %s", f)
		}
	}
}
