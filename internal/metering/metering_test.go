package metering

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestNopDiscards(t *testing.T) {
	var m Meter = Nop{}
	m.Record(Event{Func: "x", Instructions: 1}) // must not panic
}

func TestAccumulatorTotals(t *testing.T) {
	var a Accumulator
	a.Record(Event{Func: "f", Instructions: 10, Bytes: 100, WorkingSet: 50, Branches: 5, Allocated: 7})
	a.Record(Event{Func: "g", Instructions: 20, Bytes: 200, WorkingSet: 80, Branches: 15, PageTouches: 3})
	tot := a.Totals()
	if tot.Instructions != 30 || tot.Bytes != 300 || tot.Branches != 20 {
		t.Errorf("totals wrong: %+v", tot)
	}
	if tot.WorkingSet != 80 {
		t.Errorf("WorkingSet should be max, got %d", tot.WorkingSet)
	}
	if tot.Allocated != 7 || tot.PageTouches != 3 {
		t.Errorf("allocated/pages wrong: %+v", tot)
	}
}

func TestByFuncGroups(t *testing.T) {
	var a Accumulator
	a.Record(Event{Func: "f", Instructions: 10, Pattern: Sequential, Branches: 100, BranchMissRate: 0.1})
	a.Record(Event{Func: "f", Instructions: 5, Pattern: Random, Branches: 100, BranchMissRate: 0.3})
	a.Record(Event{Func: "g", Instructions: 7})
	by := a.ByFunc()
	if len(by) != 2 {
		t.Fatalf("groups = %d, want 2", len(by))
	}
	f := by["f"]
	if f.Instructions != 15 {
		t.Errorf("f instructions = %d, want 15", f.Instructions)
	}
	if f.Pattern != Random {
		t.Errorf("worst pattern not kept: %v", f.Pattern)
	}
	if f.BranchMissRate < 0.19 || f.BranchMissRate > 0.21 {
		t.Errorf("blended branch miss rate = %v, want 0.2", f.BranchMissRate)
	}
	if by["g"].Instructions != 7 {
		t.Error("g instructions wrong")
	}
}

func TestScaledMultiplies(t *testing.T) {
	var a Accumulator
	s := Scaled(&a, 10)
	s.Record(Event{Func: "f", Instructions: 3, Bytes: 5, Branches: 7, PageTouches: 2, Allocated: 1, WorkingSet: 99})
	if len(a.Events) != 1 {
		t.Fatal("event not forwarded")
	}
	ev := a.Events[0]
	if ev.Instructions != 30 || ev.Bytes != 50 || ev.Branches != 70 || ev.PageTouches != 20 || ev.Allocated != 10 {
		t.Errorf("scaling wrong: %+v", ev)
	}
	if ev.WorkingSet != 99 {
		t.Errorf("WorkingSet must not be scaled, got %d", ev.WorkingSet)
	}
}

func TestPatternString(t *testing.T) {
	if Sequential.String() != "sequential" || Strided.String() != "strided" || Random.String() != "random" {
		t.Error("pattern names wrong")
	}
	if Pattern(42).String() != "unknown" {
		t.Error("unknown pattern name wrong")
	}
}

// randomEvents draws n events over a handful of function symbols, with
// branch counts and miss rates that make ByFunc's float blend sensitive to
// any change in evaluation order.
func randomEvents(r *rand.Rand, n int) []Event {
	funcs := []string{"calc_band_9", "calc_band_10", "seed_filter", "addbuf", "copy_to_iter"}
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Func:           funcs[r.Intn(len(funcs))],
			Instructions:   uint64(r.Intn(1 << 20)),
			Bytes:          uint64(r.Intn(1 << 16)),
			WorkingSet:     uint64(r.Intn(1 << 24)),
			Pattern:        Pattern(r.Intn(3)),
			Branches:       uint64(r.Intn(4)) * uint64(r.Intn(1<<12)),
			BranchMissRate: r.Float64(),
			PageTouches:    uint64(r.Intn(64)),
			Allocated:      uint64(r.Intn(1 << 12)),
			Pruned:         uint64(r.Intn(100)),
		}
	}
	return evs
}

// TestLinkedReadsAsFlat cuts random event lists into random runs (empty
// ones included), links them, and requires every reader to agree bitwise
// with the flat accumulator holding the same events.
func TestLinkedReadsAsFlat(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		evs := randomEvents(r, r.Intn(300))
		flat := &Accumulator{Events: evs}
		linked := &Accumulator{}
		for lo, done := 0, false; !done; {
			hi := lo + r.Intn(len(evs)-lo+1)
			src := &Accumulator{}
			for _, ev := range evs[lo:hi] {
				src.Record(ev)
			}
			linked.Link(src)
			lo, done = hi, hi == len(evs)
		}
		if !linked.Linked() || flat.Linked() {
			t.Fatal("Linked() wrong")
		}
		if linked.Len() != len(evs) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, linked.Len(), len(evs))
		}
		if len(evs) > 0 && !reflect.DeepEqual(linked.Flat(), evs) {
			t.Fatalf("trial %d: Flat differs", trial)
		}
		if !reflect.DeepEqual(linked.Totals(), flat.Totals()) {
			t.Fatalf("trial %d: Totals differ", trial)
		}
		if !reflect.DeepEqual(linked.ByFunc(), flat.ByFunc()) {
			t.Fatalf("trial %d: ByFunc differs", trial)
		}
		if len(evs) > 0 && len(linked.Events) == 0 {
			t.Fatalf("trial %d: head run empty though events were linked", trial)
		}
		// Linking a linked accumulator carries all of its runs.
		outer := &Accumulator{}
		outer.Link(linked)
		if len(evs) > 0 && !reflect.DeepEqual(outer.Flat(), evs) {
			t.Fatalf("trial %d: relinked Flat differs", trial)
		}
	}
}

func TestRecordAfterLinkPanics(t *testing.T) {
	src := &Accumulator{}
	src.Record(Event{Func: "f", Instructions: 1})
	a := &Accumulator{}
	a.Link(src)
	defer func() {
		if recover() == nil {
			t.Fatal("Record on a linked accumulator did not panic")
		}
		if a.Len() != 1 || src.Len() != 1 {
			t.Fatal("rejected Record still changed an accumulator")
		}
	}()
	a.Record(Event{Func: "g"})
}

// TestLinkNeverWritesSource appends to a linked head run — the one write
// an exported field cannot forbid — and requires the source's backing
// array, spare capacity included, to be untouched.
func TestLinkNeverWritesSource(t *testing.T) {
	src := &Accumulator{Events: make([]Event, 0, 8)}
	src.Record(Event{Func: "f", Instructions: 1})
	src.Record(Event{Func: "f", Instructions: 2})
	a := &Accumulator{}
	a.Link(src)
	second := &Accumulator{Events: []Event{{Func: "g", Instructions: 3}}}
	a.Link(second)
	if &a.Events[0] != &src.Events[0] || &a.tail[0][0] != &second.Events[0] {
		t.Fatal("linked runs do not alias their sources")
	}
	a.Events = append(a.Events, Event{Func: "intruder"})
	if got := src.Events[:3][2]; got.Func != "" {
		t.Fatalf("append through the link wrote into the source's spare capacity: %+v", got)
	}
	if len(src.Events) != 2 || src.Events[1].Instructions != 2 {
		t.Fatal("source events changed")
	}
}
