// Package metering defines the instrumentation contract between the real
// workload code (HMM search kernels, buffers, tensor ops) and the machine
// models in simhw/simio. Workload functions report Events describing the
// work they just performed — instruction estimates, bytes touched, access
// pattern, working-set size — and a machine model turns those events into
// cycles, cache misses and simulated seconds for a specific platform.
//
// This is the layering seam that lets one execution of the workload be
// "replayed" against both the Intel Xeon server and the AMD Ryzen desktop
// models without re-running the algorithms.
package metering

import "slices"

// Pattern classifies the dominant memory access pattern of an event. The
// cache and TLB models treat them differently: sequential traffic prefetches
// almost perfectly, strided traffic costs TLB reach, random traffic pays the
// full hierarchy.
type Pattern int

const (
	Sequential Pattern = iota
	Strided
	Random
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case Random:
		return "random"
	default:
		return "unknown"
	}
}

// Func is a symbol work is attributed to. The names mirror the hot symbols
// in the paper's Tables IV and V (calc_band_9, calc_band_10, addbuf,
// seebuf, copy_to_iter, std::vector::_M_fill_insert,
// xla::ShapeUtil::ByteSizeOf) so the profiler output lines up with the
// paper's perf reports. The enum order is the names' sort order, so a walk
// over a Ledger meets them as a sorted name list would.
type Func uint8

const (
	AddBuf Func = iota
	BandPrune
	CalcBand10
	CalcBand9
	CopyToIter
	ForwardBand
	SeeBuf
	SeedFilter
	FillInsert
	ViterbiFull
	ByteSizeOf
	CompilePasses
	// NumFuncs is the number of symbols: the size of a Ledger.
	NumFuncs
)

// funcs holds each symbol's name and the constants of its work: the
// workload-intrinsic branch misprediction probability in [0,1], which the
// CPU model scales by its predictor quality, and the dominant access
// pattern. Both are properties of the code, not of an input, so they live
// here rather than in every event.
var funcs = [NumFuncs]struct {
	name           string
	branchMissRate float64
	pattern        Pattern
}{
	// HMMER's buffering layer: the parse and lookahead passes.
	AddBuf:     {"addbuf", 0.002, Sequential},
	BandPrune:  {"band_prune", 0, Sequential},
	CalcBand10: {"calc_band_10", 0.004, Strided},
	CalcBand9:  {"calc_band_9", 0.004, Strided},
	// Copy loops are essentially branch-perfect.
	CopyToIter:  {"copy_to_iter", 0.001, Sequential},
	ForwardBand: {"forward_band", 0.003, Strided},
	SeeBuf:      {"seebuf", 0.002, Sequential},
	// Hash probe hit/miss is data-dependent and poorly predicted; the
	// probes are random access.
	SeedFilter: {"seed_filter", 0.010, Random},
	// Fill loops predict perfectly; the cost is the page faults.
	FillInsert:  {"std::vector::_M_fill_insert", 0.002, Sequential},
	ViterbiFull: {"viterbi_full", 0.004, Strided},
	// Shape-dependent virtual dispatch mispredicts freely, over shape
	// metadata scattered across the heap.
	ByteSizeOf:    {"xla::ShapeUtil::ByteSizeOf", 0.08, Random},
	CompilePasses: {"xla_compile_passes", 0.015, Random},
}

// String returns the symbol's name.
func (f Func) String() string { return funcs[f].name }

// BranchMissRate is the function's branch misprediction probability.
func (f Func) BranchMissRate() float64 { return funcs[f].branchMissRate }

// Pattern is the function's dominant access pattern.
func (f Func) Pattern() Pattern { return funcs[f].pattern }

// Event is one unit of reported work, attributed to a function. It holds
// no pointer, so the collector does not scan an array of them.
type Event struct {
	// Func is the symbol the work is attributed to.
	Func Func
	// Instructions is the retired-instruction estimate for the event.
	Instructions uint64
	// Bytes is the total data volume touched (reads + writes).
	Bytes uint64
	// WorkingSet is the live data footprint in bytes during the event; the
	// cache model compares it against per-level capacities. Only a reader
	// of whole events sees it (Log): a ledger does not sum it.
	WorkingSet uint64
	// Branches is the conditional-branch estimate.
	Branches uint64
	// Allocated is bytes newly allocated during the event (drives page
	// faults on first touch, Table V's _M_fill_insert behavior).
	Allocated uint64
}

// Meter receives events. Implementations must be safe for use from the
// single goroutine that owns them; concurrent workers each get their own
// Meter and the owner merges afterwards.
type Meter interface {
	Record(ev Event)
}

// Nop discards all events; it is the default when a caller does not care
// about simulation, keeping the workload code unconditional.
type Nop struct{}

// Record implements Meter.
func (Nop) Record(Event) {}

// Tally is one function's counted work: how many events it recorded and
// their summed counters, which is all a per-function replay of an MSA run
// reads of them.
type Tally struct {
	Events, Instructions, Bytes, Branches, Allocated uint64
}

// Add adds u to t.
func (t *Tally) Add(u Tally) {
	t.Events += u.Events
	t.Instructions += u.Instructions
	t.Bytes += u.Bytes
	t.Branches += u.Branches
	t.Allocated += u.Allocated
}

// Sub returns t − u: the work between two running totals.
func (t Tally) Sub(u Tally) Tally {
	return Tally{t.Events - u.Events, t.Instructions - u.Instructions, t.Bytes - u.Bytes,
		t.Branches - u.Branches, t.Allocated - u.Allocated}
}

// AddEvent counts one event into t.
func (t *Tally) AddEvent(ev *Event) {
	t.Events++
	t.Instructions += ev.Instructions
	t.Bytes += ev.Bytes
	t.Branches += ev.Branches
	t.Allocated += ev.Allocated
}

// Ledger is counted work per function, indexed by Func. Its sums are
// exact integers, so any grouping of the same events adds up to the same
// ledger.
type Ledger [NumFuncs]Tally

// Total sums the ledger over its functions.
func (l *Ledger) Total() Tally {
	var t Tally
	for f := range l {
		t.Add(l[f])
	}
	return t
}

// Log is a Meter that keeps every event, in order: for a reader of the
// fields a ledger does not sum, as core's host profile reads WorkingSet.
type Log []Event

// Record implements Meter.
func (l *Log) Record(ev Event) { *l = append(*l, ev) }

// RecordStart marks where a record's work starts: a scan calls it as it
// takes each record from its source, before the record's first event. A
// meter that folds per record — an Accumulator, or Scaled over one —
// closes the record before and opens the next; any other meter ignores it.
// It is not an event: it counts nothing and moves no Ledger. (The reader
// work each record costs, copy_to_iter, addbuf and seebuf, is a property
// of the database, which msa credits from a per-record table.)
func RecordStart(m Meter) {
	if r, ok := m.(interface{ RecordStart() }); ok {
		r.RecordStart()
	}
}

// Accumulator is one worker thread's metering: work credited to it as
// per-function sums, plus what a scan records into it, folded per record
// (Fold). An MSA result's workers are credited from the chains'
// per-record sums, and hold no fold.
type Accumulator struct {
	// Events is always empty — a scan folds what it records, and nothing
	// keeps an event — and its length is the constant 0. It stays, one
	// word wide, for callers that still read that length.
	Events *[0]Event
	Credit Ledger
	// fold is what Record has folded since the last TakeFold. It is
	// allocated on the first Record, so an accumulator that is only
	// credited is its ledger and two words: the size class of a merged
	// result's workers does not change.
	fold *Fold
}

// Record implements Meter: the event's work joins its record's row of the
// fold.
func (a *Accumulator) Record(ev Event) {
	if a.fold == nil {
		a.fold = &Fold{}
	}
	a.fold.open[ev.Func].AddEvent(&ev)
}

// RecordStart closes the fold's open record and opens the next (see the
// package's RecordStart).
func (a *Accumulator) RecordStart() {
	if a.fold == nil {
		a.fold = &Fold{}
	}
	a.fold.flush()
	a.fold.Records++
}

// Reserve gives an accumulator without a fold one with room for the rows
// of records records, so a scan span that size appends its rows without
// regrowing them. slices.Grow takes all of the allocation's size class.
func (a *Accumulator) Reserve(records int) {
	if a.fold == nil && records > 0 {
		a.fold = &Fold{Rows: slices.Grow([]Row(nil), records*rowsPerRecord)}
	}
}

// TakeFold returns the work recorded since the last call, with its last
// record closed, and leaves a without a fold: the next Record starts a
// new one. It returns nil when nothing was recorded.
func (a *Accumulator) TakeFold() *Fold {
	f := a.fold
	if a.fold = nil; f != nil {
		f.flush()
	}
	return f
}

// Join appends f, a taken fold of the records after a's, to a's fold, its
// records numbered after a's; into an accumulator without a fold, f itself
// becomes the fold, uncopied. a must hold no open record: it is empty, or
// only joined.
func (a *Accumulator) Join(f *Fold) {
	g := a.fold
	if g == nil {
		a.fold = f
		return
	}
	for _, r := range f.Rows {
		if r.Rec >= 0 {
			r.Rec += int32(g.Records)
		}
		g.Rows = append(g.Rows, r)
	}
	for fn, n := range f.FuncRows {
		g.FuncRows[fn] += n
	}
	g.Records += f.Records
}

// Ledger returns the accumulator's work per function: its credits plus
// its fold's rows and open record.
func (a *Accumulator) Ledger() Ledger {
	l := a.Credit
	if f := a.fold; f != nil {
		for _, r := range f.Rows {
			l[r.Func].Add(r.Tally)
		}
		for fn := range f.open {
			l[fn].Add(f.open[fn])
		}
	}
	return l
}

// rowsPerRecord is the rows Reserve makes room for per record: the one
// function every scanned record has work in, seed_filter, and one of the
// band kernels' that a candidate adds. The reader lane folds no row: its
// work is the database's (RecordStart).
const rowsPerRecord = 2

// Fold is a scan's metering folded per record: one Row for each function
// a record had work in, records in order. A record's work starts at its
// RecordStart and runs up to the next one; work recorded before the first
// is an orphan row, of record −1, which belongs to no record. A fold's
// reader must not modify it.
type Fold struct {
	// Records counts the records opened; Rows holds the closed ones' rows,
	// and FuncRows counts each function's.
	Records  int
	Rows     []Row
	FuncRows [NumFuncs]int
	// open is the open record's work, per function.
	open [NumFuncs]Tally
}

// Row is one function's work in one record of a fold.
type Row struct {
	// Rec is the record's index in its fold, or −1 for an orphan row.
	Rec  int32
	Func Func
	Tally
}

// flush closes the open record: a row for each function with work in it.
func (f *Fold) flush() {
	for fn := range f.open {
		if t := f.open[fn]; t.Events > 0 {
			f.Rows = append(f.Rows, Row{int32(f.Records - 1), Func(fn), t})
			f.FuncRows[fn]++
			f.open[fn] = Tally{}
		}
	}
}

// Scaled returns a Meter that multiplies instruction/byte counts by factor
// before forwarding to next, and forwards RecordStart. The suite uses it
// to map MiB-scale synthetic databases onto the paper's GiB-scale work
// volumes.
func Scaled(next Meter, factor float64) Meter {
	return &scaledMeter{next: next, factor: factor}
}

type scaledMeter struct {
	next   Meter
	factor float64
}

// Record implements Meter, scaling counts before forwarding.
func (m *scaledMeter) Record(ev Event) { m.next.Record(ScaleEvent(ev, m.factor)) }

// RecordStart forwards the record boundary to the wrapped meter.
func (m *scaledMeter) RecordStart() { RecordStart(m.next) }

// ScaleEvent is what Scaled forwards of ev: each counter multiplied by
// factor and floored, one event at a time.
func ScaleEvent(ev Event, factor float64) Event {
	ev.Instructions = uint64(float64(ev.Instructions) * factor)
	ev.Bytes = uint64(float64(ev.Bytes) * factor)
	ev.Branches = uint64(float64(ev.Branches) * factor)
	ev.Allocated = uint64(float64(ev.Allocated) * factor)
	return ev
}
