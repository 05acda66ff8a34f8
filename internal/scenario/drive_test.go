package scenario

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"afsysbench/internal/core"
	"afsysbench/internal/serve"
)

// sharedSuite is built once: rebuilding the synthetic databases per test
// dominates runtime.
var sharedSuite = func() *core.Suite {
	s, err := core.NewSuite()
	if err != nil {
		panic(err)
	}
	return s
}()

// TestEachVisitsEveryIndexInCursorOrder: every index is handed out exactly
// once and in trace order. One worker therefore runs fn strictly in order;
// four workers start on indexes 0–3 together and never run more than four
// calls at once (a worker takes its next index only after fn returned).
func TestEachVisitsEveryIndexInCursorOrder(t *testing.T) {
	const n = 100
	var order []int
	Each(n, 1, func(i int) { order = append(order, i) })
	if len(order) != n || !sort.IntsAreSorted(order) || order[0] != 0 || order[n-1] != n-1 {
		t.Fatalf("one worker visited %v", order)
	}

	var (
		mu             sync.Mutex
		visits         = make([]int, n)
		first          []int
		running, peak  int
		firstFourReady = make(chan struct{})
	)
	Each(n, 4, func(i int) {
		mu.Lock()
		visits[i]++
		running++
		peak = max(peak, running)
		if len(first) < 4 {
			if first = append(first, i); len(first) == 4 {
				close(firstFourReady)
			}
		}
		mu.Unlock()
		<-firstFourReady // holds the first four calls open until all four started
		mu.Lock()
		running--
		mu.Unlock()
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
	sort.Ints(first)
	if fmt.Sprint(first) != "[0 1 2 3]" || peak != 4 {
		t.Fatalf("four workers started on %v with %d calls at peak, want [0 1 2 3] and 4", first, peak)
	}

	// A non-positive worker count still drives the trace (one worker).
	ran := 0
	Each(3, 0, func(int) { ran++ })
	if ran != 3 {
		t.Fatalf("workers=0 ran fn %d times, want 3", ran)
	}
}

// fakeTarget answers by sample name: "shed" is shed at the door, "reject"
// fails to submit, "fail" is admitted and ends failed, "lost" is admitted
// and cannot be waited for; anything else completes.
type fakeTarget struct {
	mu      sync.Mutex
	threads []int
}

func (f *fakeTarget) Submit(req serve.Request) (string, bool, error) {
	f.mu.Lock()
	f.threads = append(f.threads, req.Threads)
	f.mu.Unlock()
	switch req.Sample {
	case "shed":
		return "", true, nil
	case "reject":
		return "", false, errors.New("rejected")
	}
	return req.Sample, false, nil
}

func (f *fakeTarget) Wait(id string) (serve.JobStatus, error) {
	switch id {
	case "fail":
		return serve.JobStatus{ID: id, State: "failed"}, nil
	case "lost":
		return serve.JobStatus{}, errors.New("vanished")
	}
	return serve.JobStatus{ID: id, State: "done"}, nil
}

// TestClosedLoopCountsOutcomes: shed, failed (at submit, at wait, by state)
// and completed requests are each counted once, and only completed ones
// contribute a latency sample.
func TestClosedLoopCountsOutcomes(t *testing.T) {
	trace := []string{"ok", "shed", "ok", "fail", "reject", "lost", "ok", "shed"}
	ft := &fakeTarget{}
	st := ClosedLoop(ft, trace, 3, 5)
	if st.Requests != 8 || st.Completed != 3 || st.Shed != 2 || st.Failed != 3 {
		t.Fatalf("counts: %+v", st)
	}
	if st.Latency.Count != st.Completed {
		t.Fatalf("latency over %d samples, want the %d completed", st.Latency.Count, st.Completed)
	}
	if st.ShedRate != 0.25 || st.WallSeconds <= 0 || st.Throughput <= 0 {
		t.Fatalf("derived rates: %+v", st)
	}
	for _, th := range ft.threads {
		if th != 5 {
			t.Fatalf("submitted with threads %d, want 5", th)
		}
	}
}

// TestOpenLoopShedsBeforeStart: every submission precedes Start, so a
// plain server with a queue of 3 admits exactly the first 3 of 8 events
// and sheds the other 5 — whatever the pool does later — and the admitted
// ones all complete.
func TestOpenLoopShedsBeforeStart(t *testing.T) {
	events := make([]Event, 8)
	for i := range events {
		events[i] = Event{Tenant: "t", Sample: "2PV7", Arrival: float64(i)}
	}
	s := serve.NewWithSuite(sharedSuite, serve.Config{Threads: 2, MSAWorkers: 2, GPUWorkers: 1, QueueDepth: 3})
	st, err := OpenLoop(s, events, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 8 || st.Shed != 5 || st.Completed != 3 || st.Failed != 0 {
		t.Fatalf("open loop: %+v", st)
	}
	if got := s.Metrics().Get("requests_shed_queue_full"); got != 5 {
		t.Fatalf("server counted %d queue-full sheds, want 5", got)
	}
	if st.ShedRate != 5.0/8 {
		t.Fatalf("shed rate %v", st.ShedRate)
	}
	// An unknown sample is an error, not a shed.
	s2 := serve.NewWithSuite(sharedSuite, serve.Config{})
	defer s2.Stop()
	if _, err := OpenLoop(s2, []Event{{Tenant: "t", Sample: "no-such"}}, 2); err == nil {
		t.Fatal("unknown sample submitted")
	}
}

// TestInProcWait: Wait returns the terminal status once the job's Done
// channel closes, and an unknown id is an error rather than a hang.
func TestInProcWait(t *testing.T) {
	s := serve.NewWithSuite(sharedSuite, serve.Config{Threads: 2, MSAWorkers: 1, GPUWorkers: 1, QueueDepth: 1})
	defer s.Stop()
	target := InProc{S: s}
	id, shed, err := target.Submit(serve.Request{Sample: "2PV7"})
	if err != nil || shed {
		t.Fatalf("submit: shed=%v err=%v", shed, err)
	}
	if _, shed, err := target.Submit(serve.Request{Sample: "2PV7"}); err != nil || !shed {
		t.Fatalf("over-depth submit: shed=%v err=%v, want a shed", shed, err)
	}
	s.Start()
	st, err := target.Wait(id)
	if err != nil || st.State != "done" {
		t.Fatalf("wait: %+v, %v", st, err)
	}
	if _, err := target.Wait("j9999-nope"); err == nil {
		t.Fatal("waiting for an unknown job returned no error")
	}
}
