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
	// cache model compares it against per-level capacities.
	WorkingSet uint64
	// Branches is the conditional-branch estimate.
	Branches uint64
	// PageTouches counts distinct virtual pages touched, driving the dTLB
	// and page-fault models. Zero means "derive from Bytes/pageSize".
	PageTouches uint64
	// Allocated is bytes newly allocated during the event (drives page
	// faults on first touch, Table V's _M_fill_insert behavior).
	Allocated uint64
	// Pruned counts work units (DP cells, filter lanes) that a provably-safe
	// early exit skipped. Pruned work is charged at its actual residual cost
	// inside Instructions/Bytes — a sentinel check, or nothing at all — not
	// at full kernel cost; the count is recorded separately so per-function
	// attribution can distinguish executed volume from skipped volume
	// instead of silently under-reporting the kernel's logical extent.
	Pruned uint64
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

// Accumulator is one worker thread's metering: the events recorded into
// it, in order, plus work credited to it as per-function sums. A scan
// records events; an MSA result's workers hold only credits, merged from
// the chains' per-record sums, and no event.
type Accumulator struct {
	Events []Event
	Credit Ledger
}

// Record implements Meter.
func (a *Accumulator) Record(ev Event) {
	a.Events = append(a.Events, ev)
}

// Ledger returns the accumulator's work per function: its credits plus
// its events.
func (a *Accumulator) Ledger() Ledger {
	l := a.Credit
	for i := range a.Events {
		l[a.Events[i].Func].AddEvent(&a.Events[i])
	}
	return l
}

// Scaled returns a Meter that multiplies instruction/byte counts by factor
// before forwarding to next. The suite uses it to map MiB-scale synthetic
// databases onto the paper's GiB-scale work volumes.
func Scaled(next Meter, factor float64) Meter {
	return &scaledMeter{next: next, factor: factor}
}

type scaledMeter struct {
	next   Meter
	factor float64
}

// Record implements Meter, scaling counts before forwarding.
func (m *scaledMeter) Record(ev Event) {
	ev.Instructions = uint64(float64(ev.Instructions) * m.factor)
	ev.Bytes = uint64(float64(ev.Bytes) * m.factor)
	ev.Branches = uint64(float64(ev.Branches) * m.factor)
	ev.PageTouches = uint64(float64(ev.PageTouches) * m.factor)
	ev.Allocated = uint64(float64(ev.Allocated) * m.factor)
	ev.Pruned = uint64(float64(ev.Pruned) * m.factor)
	m.next.Record(ev)
}
