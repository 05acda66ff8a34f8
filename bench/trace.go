package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded from outside the program: around a
// call into a layer, or between two of serve's public guard points.
// Parent is the index of the enclosing span (-1 for a root); Ordinal is
// the request the span belongs to (-1 for none).
type span struct {
	Name    string
	Start   time.Time
	End     time.Time
	Parent  int
	Ordinal int
}

// tracer keeps spans in memory for the length of a traced run and writes
// them once at exit. Nothing inside internal/ or cmd/ is instrumented; all
// spans come from the harness's own wrappers.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// marks are the serve.Config.PanicHook guard-point timestamps, keyed by
	// job ordinal then point ("msa", "handoff", "inference").
	marks map[int]map[string]time.Time
	// admits are the server-side arrival times of traced submits, keyed by
	// the op's index in its round (see daemon.stampAdmissions).
	admits map[int]time.Time
}

func newTracer() *tracer {
	return &tracer{marks: make(map[int]map[string]time.Time), admits: make(map[int]time.Time)}
}

// resetRound forgets stamps left by set-up and warm-up traffic: job
// ordinals and op indices restart with every round.
func (t *tracer) resetRound() {
	t.mu.Lock()
	t.marks = make(map[int]map[string]time.Time)
	t.admits = make(map[int]time.Time)
	t.mu.Unlock()
}

func (t *tracer) admit(i int, at time.Time) {
	t.mu.Lock()
	t.admits[i] = at
	t.mu.Unlock()
}

func (t *tracer) takeAdmit(i int) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.admits[i]
	delete(t.admits, i)
	return at, ok
}

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(name string, start, end time.Time, parent, ordinal int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Ordinal: ordinal})
	return len(t.spans) - 1
}

// stageMark is installed as serve.Config.PanicHook for a traced round.
func (t *tracer) stageMark(point string, ordinal int) {
	now := time.Now()
	t.mu.Lock()
	m := t.marks[ordinal]
	if m == nil {
		m = make(map[string]time.Time, 3)
		t.marks[ordinal] = m
	}
	m[point] = now
	t.mu.Unlock()
}

// takeMarks returns and forgets the guard-point stamps of one job (job
// ordinals restart with every server).
func (t *tracer) takeMarks(ordinal int) map[string]time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.marks[ordinal]
	delete(t.marks, ordinal)
	return m
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover (children may overlap each other; the
// covered part is the union of their intervals clipped to the parent).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start.Before(spans[kids[b]].Start) })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo.Before(cursor) {
				lo = cursor
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cursor = hi
			}
		}
		out[i] = s.End.Sub(s.Start) - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format
// (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds since the first span
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome dumps every span as Chrome trace-event JSON. Requests map to
// thread lanes by ordinal so one request's spans stack in one row.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	origin := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(origin) {
			origin = s.Start
		}
	}
	self := selfTimes(spans)
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts:  float64(s.Start.Sub(origin)) / float64(time.Microsecond),
			Dur: float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Pid: 1, Tid: s.Ordinal + 1,
			Args: map[string]any{"parent": s.Parent, "ordinal": s.Ordinal, "self_us": float64(self[i]) / float64(time.Microsecond)},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf is the package-name prefix of a span or metric name.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
