package msa

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"afsysbench/internal/metering"
)

// recordMark stands for a record's start (metering.RecordStart) in a test
// stream of events; it is not an event.
var recordMark = metering.Event{Func: metering.NumFuncs}

// eventWalkStream is the fold setStream replaced, kept as its oracle: it
// walks the chain's events — spans in scan order, each span's events as
// recorded — twice, once to size every function's arrays and once to fill
// them. A record's events start at its recordMark. A stream that does not
// start with a record, or holds another number of records than the scans
// report, is an error.
func (d *chainDelta) eventWalkStream(spans [][]metering.Event) error {
	each := func(fn func(rec int, ev *metering.Event)) {
		rec := -1
		for _, run := range spans {
			for i := range run {
				if run[i] == recordMark {
					rec++
					continue
				}
				fn(rec, &run[i])
			}
		}
	}
	// occ[f] counts the records f has events in; last[f] is the last one
	// seen, plus one.
	var occ, last [metering.NumFuncs]int
	records, orphans := 0, false
	for _, run := range spans {
		for _, ev := range run {
			if ev == recordMark {
				records++
			}
		}
	}
	each(func(rec int, ev *metering.Event) {
		if orphans = orphans || rec < 0; !orphans && last[ev.Func] != rec+1 {
			last[ev.Func] = rec + 1
			occ[ev.Func]++
		}
	})
	if orphans {
		return fmt.Errorf("msa: the scans' events do not start with a record")
	}
	if records != d.cr.Scanned {
		return fmt.Errorf("msa: the scans recorded %d records, reported %d", records, d.cr.Scanned)
	}
	var slot [metering.NumFuncs]int
	for f, n := range occ {
		if n > 0 {
			s := funcSums{f: metering.Func(f), cum: make([]metering.Tally, 1, n+1)}
			if n < records {
				s.recs = make([]int32, 0, n)
			}
			slot[f] = len(d.sums)
			d.sums = append(d.sums, s)
		}
	}
	last = [metering.NumFuncs]int{}
	each(func(rec int, ev *metering.Event) {
		s := &d.sums[slot[ev.Func]]
		if last[ev.Func] != rec+1 {
			last[ev.Func] = rec + 1
			s.cum = append(s.cum, s.cum[len(s.cum)-1])
			if s.recs != nil {
				s.recs = append(s.recs, int32(rec))
			}
		}
		s.cum[len(s.cum)-1].AddEvent(ev)
	})
	return nil
}

// randomScans draws a chain's scans: 1–4 scans of 1–16 spans each, a span
// 0–12 records (so some spans are empty), every record its recordMark,
// then its dense function's events (every record has work in it) and, now
// and then, a sparse function's, each function 1–3 events in random order.
// Spans are returned in scan order, with the number of records they hold.
func randomScans(r *rand.Rand) (spans [][]metering.Event, records int) {
	dense := []metering.Func{metering.SeedFilter}
	sparse := []metering.Func{metering.BandPrune, metering.CalcBand9, metering.CalcBand10, metering.ForwardBand, metering.ViterbiFull}
	ev := func(f metering.Func) metering.Event {
		return metering.Event{Func: f, Instructions: uint64(r.Intn(1 << 20)), Bytes: uint64(r.Intn(1 << 16)),
			WorkingSet: uint64(r.Intn(1 << 24)), Branches: uint64(r.Intn(1 << 12)), Allocated: uint64(r.Intn(3)) * uint64(r.Intn(1<<10))}
	}
	for range 1 + r.Intn(4) {
		for range 1 + r.Intn(16) {
			var span []metering.Event
			for range r.Intn(13) {
				records++
				span = append(span, recordMark)
				var body []metering.Event
				for _, f := range dense {
					for range 1 + r.Intn(3) {
						body = append(body, ev(f))
					}
				}
				for _, f := range sparse {
					if r.Intn(4) == 0 {
						for range 1 + r.Intn(3) {
							body = append(body, ev(f))
						}
					}
				}
				r.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
				span = append(span, body...)
			}
			spans = append(spans, span)
		}
	}
	return spans, records
}

// foldSpans folds each span into its own accumulator, as a scan span does,
// and stitches the taken folds with setStream.
func foldSpans(d *chainDelta, spans [][]metering.Event) error {
	var folds []*metering.Fold
	for _, span := range spans {
		var acc metering.Accumulator
		acc.Reserve(len(span) / 4)
		for _, ev := range span {
			if ev == recordMark {
				acc.RecordStart()
			} else {
				acc.Record(ev)
			}
		}
		if f := acc.TakeFold(); f != nil {
			folds = append(folds, f)
		}
	}
	return d.setStream(folds)
}

// TestFoldMatchesEventWalk holds the per-record fold to the event walk it
// replaced: on random chains of dense and sparse functions, empty spans,
// 1–16 spans a scan and several scans, both build the same sums; an event
// before the chain's first record and a miscounted record are errors in
// both; and an event before a later span's first record, which the walk
// credited to the record before the span, is an error of the fold.
func TestFoldMatchesEventWalk(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		spans, records := randomScans(r)
		if records == 0 {
			continue
		}
		got := &chainDelta{cr: ChainResult{Scanned: records}}
		want := &chainDelta{cr: ChainResult{Scanned: records}}
		if err := foldSpans(got, spans); err != nil {
			t.Fatalf("trial %d: fold: %v", trial, err)
		}
		if err := want.eventWalkStream(spans); err != nil {
			t.Fatalf("trial %d: event walk: %v", trial, err)
		}
		if !reflect.DeepEqual(got.sums, want.sums) {
			t.Fatalf("trial %d (%d spans, %d records): the fold's sums differ from the event walk's", trial, len(spans), records)
		}

		miscounted := func() *chainDelta { return &chainDelta{cr: ChainResult{Scanned: records + 1}} }
		if foldSpans(miscounted(), spans) == nil || miscounted().eventWalkStream(spans) == nil {
			t.Fatalf("trial %d: a miscounted record was accepted", trial)
		}

		orphan := metering.Event{Func: metering.SeedFilter, Instructions: 1}
		first := 0
		for len(spans[first]) == 0 {
			first++
		}
		for _, at := range []int{first, r.Intn(len(spans))} {
			bad := append([][]metering.Event(nil), spans...)
			bad[at] = append([]metering.Event{orphan}, spans[at]...)
			if foldSpans(&chainDelta{cr: ChainResult{Scanned: records}}, bad) == nil {
				t.Fatalf("trial %d: the fold accepted an event before span %d's first record", trial, at)
			}
			if walkErr := (&chainDelta{cr: ChainResult{Scanned: records}}).eventWalkStream(bad); at == first && walkErr == nil {
				t.Fatalf("trial %d: the event walk accepted an event before the chain's first record", trial)
			}
		}
	}
}
