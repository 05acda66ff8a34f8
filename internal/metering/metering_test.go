package metering

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestNopDiscards(t *testing.T) {
	var m Meter = Nop{}
	m.Record(Event{Func: AddBuf, Instructions: 1}) // must not panic
}

// TestAccumulatorTotals: an accumulator's ledger is its credits plus its
// events, and the ledger's total sums every function.
func TestAccumulatorTotals(t *testing.T) {
	var a Accumulator
	a.Credit[SeedFilter] = Tally{Events: 2, Instructions: 1, Bytes: 2, Branches: 3, Allocated: 4}
	a.Record(Event{Func: AddBuf, Instructions: 10, Bytes: 100, WorkingSet: 50, Branches: 5, Allocated: 7})
	a.Record(Event{Func: SeeBuf, Instructions: 20, Bytes: 200, WorkingSet: 80, Branches: 15, PageTouches: 3})
	l := a.Ledger()
	if got, want := l.Total(), (Tally{Events: 4, Instructions: 31, Bytes: 302, Branches: 23, Allocated: 11}); got != want {
		t.Errorf("total = %+v, want %+v", got, want)
	}
	if a.Credit[AddBuf] != (Tally{}) {
		t.Error("Ledger wrote its events into the credits")
	}
}

// TestByFuncGroups: the ledger sums each function's events apart, and a
// span between two running totals is their difference.
func TestByFuncGroups(t *testing.T) {
	var a Accumulator
	a.Record(Event{Func: CalcBand9, Instructions: 10, Branches: 100})
	a.Record(Event{Func: CalcBand9, Instructions: 5, Branches: 100, Allocated: 1})
	a.Record(Event{Func: CopyToIter, Instructions: 7})
	by := a.Ledger()
	if got, want := by[CalcBand9], (Tally{Events: 2, Instructions: 15, Branches: 200, Allocated: 1}); got != want {
		t.Errorf("calc_band_9 = %+v, want %+v", got, want)
	}
	if got, want := by[CopyToIter], (Tally{Events: 1, Instructions: 7}); got != want {
		t.Errorf("copy_to_iter = %+v, want %+v", got, want)
	}
	for f, tally := range by {
		if f != int(CalcBand9) && f != int(CopyToIter) && tally != (Tally{}) {
			t.Errorf("%s = %+v, want nothing", Func(f), tally)
		}
	}
	lo, hi := Tally{1, 2, 3, 4, 5}, Tally{11, 12, 13, 14, 15}
	span := hi.Sub(lo)
	if span != (Tally{10, 10, 10, 10, 10}) {
		t.Errorf("span = %+v", span)
	}
	if lo.Add(span); lo != hi {
		t.Errorf("lo + span = %+v, want %+v", lo, hi)
	}
}

// TestEventIsPointerFree: an event is 64 bytes of integers, so an array of
// them is one the collector never scans.
func TestEventIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Event{})
	if typ.Size() != 64 {
		t.Errorf("Event is %d bytes, want 64", typ.Size())
	}
	for i := range typ.NumField() {
		if k := typ.Field(i).Type.Kind(); k < reflect.Bool || k > reflect.Float64 {
			t.Errorf("Event.%s is a %v", typ.Field(i).Name, k)
		}
	}
}

func TestScaledMultiplies(t *testing.T) {
	var a Accumulator
	s := Scaled(&a, 10)
	s.Record(Event{Func: AddBuf, Instructions: 3, Bytes: 5, Branches: 7, PageTouches: 2, Allocated: 1, WorkingSet: 99})
	if len(a.Events) != 1 {
		t.Fatal("event not forwarded")
	}
	ev := a.Events[0]
	if ev.Instructions != 30 || ev.Bytes != 50 || ev.Branches != 70 || ev.PageTouches != 20 || ev.Allocated != 10 {
		t.Errorf("scaling wrong: %+v", ev)
	}
	if ev.WorkingSet != 99 || ev.Func != AddBuf {
		t.Errorf("WorkingSet and Func must not be scaled, got %+v", ev)
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

// TestFuncTable pins the function table: its names are in sort order, as
// the machine models met them when a sorted name list ordered them, and
// each function's rate and pattern are the literals its recording site
// passed in every event before the table held them.
func TestFuncTable(t *testing.T) {
	want := []struct {
		name    string
		rate    float64
		pattern Pattern
	}{
		{"addbuf", 0.002, Sequential},                      // hmmer.Buffer.Next
		{"band_prune", 0, Sequential},                      // hmmer recordBandPrune: no rate
		{"calc_band_10", 0.004, Strided},                   // hmmer recordCalcBand
		{"calc_band_9", 0.004, Strided},                    // hmmer recordCalcBand
		{"copy_to_iter", 0.001, Sequential},                // hmmer.Buffer.Next
		{"forward_band", 0.003, Strided},                   // hmmer recordForwardEvent
		{"seebuf", 0.002, Sequential},                      // hmmer.Buffer.Next
		{"seed_filter", 0.010, Random},                     // hmmer seedIndex.candidates
		{"std::vector::_M_fill_insert", 0.002, Sequential}, // xla.Compile
		{"viterbi_full", 0.004, Strided},                   // hmmer.FullViterbi
		{"xla::ShapeUtil::ByteSizeOf", 0.08, Random},       // xla.Compile
		{"xla_compile_passes", 0.015, Random},              // xla.Compile
	}
	if len(want) != int(NumFuncs) {
		t.Fatalf("%d functions, want %d", NumFuncs, len(want))
	}
	names := make([]string, NumFuncs)
	for f := range NumFuncs {
		w := want[f]
		names[f] = f.String()
		if f.String() != w.name || f.BranchMissRate() != w.rate || f.Pattern() != w.pattern {
			t.Errorf("Func %d = %s %v %v, want %s %v %v", f, f, f.BranchMissRate(), f.Pattern(), w.name, w.rate, w.pattern)
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("names not in sort order: %q", names)
	}
}

// randomEvents draws n events over every function.
func randomEvents(r *rand.Rand, n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Func:         Func(r.Intn(int(NumFuncs))),
			Instructions: uint64(r.Intn(1 << 20)),
			Bytes:        uint64(r.Intn(1 << 16)),
			WorkingSet:   uint64(r.Intn(1 << 24)),
			Branches:     uint64(r.Intn(4)) * uint64(r.Intn(1<<12)),
			PageTouches:  uint64(r.Intn(64)),
			Allocated:    uint64(r.Intn(1 << 12)),
			Pruned:       uint64(r.Intn(100)),
		}
	}
	return evs
}

// MapWalk folds events into sums keyed by function name, one map lookup
// per event: the oracle a ledger is held to. It is exported for the
// sample-stream test in package metering_test.
func MapWalk(events []Event) map[string]Tally {
	out := make(map[string]Tally)
	for i := range events {
		t := out[events[i].Func.String()]
		t.AddEvent(&events[i])
		out[events[i].Func.String()] = t
	}
	return out
}

// DiffLedger returns the first function in which a ledger and a map walk
// differ, or "" when they agree on every function.
func DiffLedger(got Ledger, want map[string]Tally) string {
	for f, t := range got {
		if name := Func(f).String(); t != want[name] {
			return fmt.Sprintf("%s: %+v, want %+v", name, t, want[name])
		}
	}
	return ""
}

// TestByFuncMatchesMapWalk holds an accumulator's ledger to the map walk
// on random streams, a random prefix of each credited and the rest
// recorded: however work reaches a ledger, it sums to the same integers.
func TestByFuncMatchesMapWalk(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		evs := randomEvents(r, r.Intn(400))
		split := r.Intn(len(evs) + 1)
		var a Accumulator
		for i := range evs[:split] {
			a.Credit[evs[i].Func].AddEvent(&evs[i])
		}
		a.Events = evs[split:]
		if d := DiffLedger(a.Ledger(), MapWalk(evs)); d != "" {
			t.Fatalf("trial %d (%d events, %d credited): %s", trial, len(evs), split, d)
		}
	}
}
