package metering

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"
)

func TestNopDiscards(t *testing.T) {
	var m Meter = Nop{}
	m.Record(Event{Func: AddBuf, Instructions: 1}) // must not panic
}

// TestAccumulatorTotals: an accumulator's ledger is its credits plus what
// it recorded, and the ledger's total sums every function.
func TestAccumulatorTotals(t *testing.T) {
	var a Accumulator
	a.Credit[SeedFilter] = Tally{Events: 2, Instructions: 1, Bytes: 2, Branches: 3, Allocated: 4}
	a.Record(Event{Func: AddBuf, Instructions: 10, Bytes: 100, WorkingSet: 50, Branches: 5, Allocated: 7})
	a.Record(Event{Func: SeeBuf, Instructions: 20, Bytes: 200, WorkingSet: 80, Branches: 15})
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

// TestEventIsPointerFree: an event is 48 bytes of integers, so an array of
// them is one the collector never scans.
func TestEventIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Event{})
	if typ.Size() != 48 {
		t.Errorf("Event is %d bytes, want 48", typ.Size())
	}
	for i := range typ.NumField() {
		if k := typ.Field(i).Type.Kind(); k < reflect.Bool || k > reflect.Float64 {
			t.Errorf("Event.%s is a %v", typ.Field(i).Name, k)
		}
	}
}

func TestScaledMultiplies(t *testing.T) {
	var l Log
	s := Scaled(&l, 10)
	s.Record(Event{Func: AddBuf, Instructions: 3, Bytes: 5, Branches: 7, Allocated: 1, WorkingSet: 99})
	if len(l) != 1 {
		t.Fatal("event not forwarded")
	}
	ev := l[0]
	if ev.Instructions != 30 || ev.Bytes != 50 || ev.Branches != 70 || ev.Allocated != 10 {
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
		{"addbuf", 0.002, Sequential},                      // hmmer.ReaderEvents
		{"band_prune", 0, Sequential},                      // hmmer recordBandPrune: no rate
		{"calc_band_10", 0.004, Strided},                   // hmmer recordCalcBand
		{"calc_band_9", 0.004, Strided},                    // hmmer recordCalcBand
		{"copy_to_iter", 0.001, Sequential},                // hmmer.ReaderEvents
		{"forward_band", 0.003, Strided},                   // hmmer recordForwardEvent
		{"seebuf", 0.002, Sequential},                      // hmmer.ReaderEvents
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
			Allocated:    uint64(r.Intn(1 << 12)),
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
// recorded — straight into the accumulator, or into two that are taken and
// joined into it: however work reaches a ledger, it sums to the same
// integers.
func TestByFuncMatchesMapWalk(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		evs := randomEvents(r, r.Intn(400))
		split := r.Intn(len(evs) + 1)
		var a Accumulator
		for i := range evs[:split] {
			a.Credit[evs[i].Func].AddEvent(&evs[i])
		}
		rest := evs[split:]
		if trial%2 == 0 {
			for _, ev := range rest {
				a.Record(ev)
			}
		} else {
			var parts [2]Accumulator
			cut := r.Intn(len(rest) + 1)
			for _, ev := range rest[:cut] {
				parts[0].Record(ev)
			}
			for _, ev := range rest[cut:] {
				parts[1].Record(ev)
			}
			for i := range parts {
				if f := parts[i].TakeFold(); f != nil {
					a.Join(f)
				}
			}
		}
		if d := DiffLedger(a.Ledger(), MapWalk(evs)); d != "" {
			t.Fatalf("trial %d (%d events, %d credited): %s", trial, len(evs), split, d)
		}
	}
}

// TestFoldRows: a fold holds one row per function a record had work in,
// records in order, RecordStart opening each record — through a Scaled
// meter too — and counting nothing itself; work before the first record
// is an orphan row of record −1; a taken fold leaves the accumulator
// empty; and a join numbers a fold's records after the ones before it,
// and adopts a fold joining an empty accumulator.
func TestFoldRows(t *testing.T) {
	ev := func(f Func, instr uint64) Event { return Event{Func: f, Instructions: instr, WorkingSet: 1 << 20} }
	var a Accumulator
	a.Reserve(2)
	m := Scaled(&a, 1)
	m.Record(ev(SeedFilter, 1)) // an orphan
	RecordStart(m)              // record 0
	for _, e := range []Event{ev(SeedFilter, 2), ev(AddBuf, 3), ev(AddBuf, 4), ev(CalcBand9, 5)} {
		m.Record(e)
	}
	RecordStart(m) // record 1, still open
	m.Record(ev(AddBuf, 7))
	RecordStart(Nop{}) // a meter that does not fold ignores it
	if l := a.Ledger(); l.Total() != (Tally{Events: 6, Instructions: 22}) {
		t.Fatalf("ledger total before the take = %+v", l.Total())
	}
	f := a.TakeFold()
	want := []Row{
		{-1, SeedFilter, Tally{Events: 1, Instructions: 1}},
		{0, AddBuf, Tally{Events: 2, Instructions: 7}},
		{0, CalcBand9, Tally{Events: 1, Instructions: 5}},
		{0, SeedFilter, Tally{Events: 1, Instructions: 2}},
		{1, AddBuf, Tally{Events: 1, Instructions: 7}},
	}
	if !reflect.DeepEqual(f.Rows, want) || f.Records != 2 {
		t.Fatalf("rows %+v over %d records, want %+v over 2", f.Rows, f.Records, want)
	}
	if f.FuncRows[AddBuf] != 2 || f.FuncRows[SeedFilter] != 2 || f.FuncRows[CalcBand9] != 1 || f.FuncRows[SeeBuf] != 0 {
		t.Fatal("per-function row counts wrong")
	}
	if a.TakeFold() != nil || a.Ledger() != (Ledger{}) {
		t.Fatal("a taken fold left work behind")
	}

	var b Accumulator
	b.RecordStart()
	b.Record(ev(SeedFilter, 10))
	g := b.TakeFold()
	var joined Accumulator
	joined.Join(g)
	if joined.TakeFold() != g {
		t.Fatal("a fold joining an empty accumulator was copied")
	}
	joined.Join(g)
	joined.Join(f)
	jf := joined.TakeFold()
	if jf.Records != 3 || len(jf.Rows) != 6 || jf.FuncRows[SeedFilter] != 3 {
		t.Fatalf("joined %d records in %d rows, want 3 in 6", jf.Records, len(jf.Rows))
	}
	for i, r := range jf.Rows[1:] {
		if w := want[i]; (w.Rec < 0 && r.Rec != -1) || (w.Rec >= 0 && r.Rec != w.Rec+1) {
			t.Fatalf("joined row %d is of record %d, want %d's record renumbered", i+1, r.Rec, w.Rec)
		}
	}
}

// TestCreditedAccumulatorHoldsNoFold: an accumulator that is only credited
// — every worker of a merged MSA result — is its ledger and two words, no
// larger than when it held an event slice (504 bytes), so the workers of a
// merge allocate in the size class they did; and crediting it allocates
// nothing for a fold.
func TestCreditedAccumulatorHoldsNoFold(t *testing.T) {
	var a Accumulator
	if got, want := unsafe.Sizeof(a), unsafe.Sizeof(Ledger{})+2*unsafe.Sizeof(&Fold{}); got != want || got > 504 {
		t.Errorf("Accumulator is %d bytes, want %d and at most 504", got, want)
	}
	a.Reserve(0)
	a.Credit[AddBuf].Add(Tally{Events: 1})
	if a.fold != nil {
		t.Error("crediting or reserving nothing allocated a fold")
	}
}
