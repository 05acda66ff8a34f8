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

// Event is one unit of reported work, attributed to a named function. The
// function names mirror the hot symbols in the paper's Tables IV and V
// (calc_band_9, calc_band_10, addbuf, seebuf, copy_to_iter,
// std::vector::_M_fill_insert, xla::ShapeUtil::ByteSizeOf) so the profiler
// output lines up with the paper's perf reports.
type Event struct {
	// Func is the symbol the work is attributed to.
	Func string
	// Instructions is the retired-instruction estimate for the event.
	Instructions uint64
	// Bytes is the total data volume touched (reads + writes).
	Bytes uint64
	// WorkingSet is the live data footprint in bytes during the event; the
	// cache model compares it against per-level capacities.
	WorkingSet uint64
	// Pattern is the dominant access pattern.
	Pattern Pattern
	// Branches is the conditional-branch estimate.
	Branches uint64
	// BranchMissRate is the workload-intrinsic misprediction probability
	// in [0,1]; the CPU model scales it by its predictor quality.
	BranchMissRate float64
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

// Accumulator collects events verbatim, summing per-function totals. It is
// the standard sink for one worker thread's activity.
//
// An accumulator is an ordered list of read-only runs of events. Events is
// the head run: a recorder that only ever calls Record — every chain-level
// accumulator, every encoded chain delta — has nothing else, and is the
// flat accumulator it always was. Link splices another accumulator's events
// in by reference, so a request-level accumulator assembled from cached
// chains costs a few slice headers, not a copy of every event. A linked
// accumulator is sealed: its events belong to whoever recorded them, so it
// must be read through Totals/ByFunc/Len/Flat and never recorded into.
// Events alone is the whole stream only until the first Link.
type Accumulator struct {
	Events []Event
	// tail holds the runs linked after the head, in order.
	tail   [][]Event
	linked bool
}

// Record implements Meter. Recording into a linked accumulator would
// either write after borrowed events out of order or into memory another
// accumulator owns; it is a programming error and panics.
func (a *Accumulator) Record(ev Event) {
	if a.linked {
		panic("metering: Record on a linked Accumulator")
	}
	a.Events = append(a.Events, ev)
}

// Link appends src's events to a by reference, in src's order. Each run is
// capacity-clipped, so an append to a.Events (or to any run) reallocates
// instead of writing into src's backing array. The link is to the events
// src holds now; a later Record into src is not seen. The first non-empty
// run linked into an empty accumulator becomes its head run, so a
// single-contributor accumulator still has everything in Events.
func (a *Accumulator) Link(src *Accumulator) {
	a.linked = true
	a.linkRun(src.Events)
	for _, run := range src.tail {
		a.linkRun(run)
	}
}

// LinkRun appends one run of events to a by reference, as Link does for
// each of an accumulator's runs: a sub-slice of another accumulator's run
// (see Run) links without copying an event.
func (a *Accumulator) LinkRun(run []Event) {
	a.linked = true
	a.linkRun(run)
}

func (a *Accumulator) linkRun(run []Event) {
	if len(run) == 0 {
		return
	}
	run = run[:len(run):len(run)]
	if len(a.Events) == 0 && len(a.tail) == 0 {
		a.Events = run
		return
	}
	a.tail = append(a.tail, run)
}

// Len returns the number of accumulated events across all runs.
func (a *Accumulator) Len() int {
	n := len(a.Events)
	for _, run := range a.tail {
		n += len(run)
	}
	return n
}

// Flat returns all accumulated events in order as one slice: Events itself
// when there is only the head run, a fresh copy otherwise. The result is
// read-only either way.
func (a *Accumulator) Flat() []Event {
	if len(a.tail) == 0 {
		return a.Events
	}
	out := make([]Event, 0, a.Len())
	out = append(out, a.Events...)
	for _, run := range a.tail {
		out = append(out, run...)
	}
	return out
}

// run returns the r-th run (0 ≤ r ≤ len(a.tail)): the head for r == 0,
// then the linked ones. Totals and ByFunc walk it with a plain inner loop
// — they sit on the serving hot path, and a per-event callback costs more
// than the arithmetic it wraps.
func (a *Accumulator) run(r int) []Event {
	if r == 0 {
		return a.Events
	}
	return a.tail[r-1]
}

// Totals sums the accumulated events.
func (a *Accumulator) Totals() Event {
	var t Event
	t.Func = "total"
	for r := 0; r <= len(a.tail); r++ {
		run := a.run(r)
		for i := range run {
			ev := &run[i]
			t.Instructions += ev.Instructions
			t.Bytes += ev.Bytes
			t.Branches += ev.Branches
			t.PageTouches += ev.PageTouches
			t.Allocated += ev.Allocated
			t.Pruned += ev.Pruned
			if ev.WorkingSet > t.WorkingSet {
				t.WorkingSet = ev.WorkingSet
			}
		}
	}
	return t
}

// ByFunc groups the accumulated events per function symbol, summing counts
// and keeping the maximum working set. Runs are walked in link order with
// the same per-event operations a flat accumulator would see, so the float
// blend of BranchMissRate is bitwise independent of how the events were
// cut into runs.
func (a *Accumulator) ByFunc() map[string]Event {
	// A stream cycles through a handful of symbols in a near-fixed order (a
	// scan records copy_to_iter, addbuf, seebuf, seed_filter per record, then
	// a candidate's band events), so groups live in a small slice and
	// next[k] is the group that followed group k last time. That guess is
	// tried first, a linear scan finds the rest, and the map is built once
	// at the end instead of looked up per event.
	var groupBuf [16]Event
	var nextBuf [16]int
	groups, next := groupBuf[:0], nextBuf[:0]
	last, g := 0, 0
	for r := 0; r <= len(a.tail); r++ {
		run := a.run(r)
		for i := range run {
			ev := &run[i]
			if g >= len(groups) || groups[g].Func != ev.Func {
				g = 0
				for g < len(groups) && groups[g].Func != ev.Func {
					g++
				}
				if g == len(groups) {
					groups, next = append(groups, Event{Func: ev.Func}), append(next, 0)
				}
				next[last] = g
			}
			cur := &groups[g]
			last, g = g, next[g]
			cur.Instructions += ev.Instructions
			cur.Bytes += ev.Bytes
			cur.Branches += ev.Branches
			cur.PageTouches += ev.PageTouches
			cur.Allocated += ev.Allocated
			cur.Pruned += ev.Pruned
			if ev.WorkingSet > cur.WorkingSet {
				cur.WorkingSet = ev.WorkingSet
			}
			if ev.Pattern > cur.Pattern {
				// Keep the "worst" (least cache friendly) pattern seen.
				cur.Pattern = ev.Pattern
			}
			// Weighted blend of branch miss rates by branch count.
			if ev.Branches > 0 {
				tot := float64(cur.Branches)
				cur.BranchMissRate = (cur.BranchMissRate*(tot-float64(ev.Branches)) +
					ev.BranchMissRate*float64(ev.Branches)) / tot
			}
		}
	}
	out := make(map[string]Event, len(groups))
	for _, ev := range groups {
		out[ev.Func] = ev
	}
	return out
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
