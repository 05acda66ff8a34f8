package serve

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"afsysbench/internal/cache"
)

// awaitDone waits for the job's Done channel and returns its final status.
func awaitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	select {
	case <-s.Done(id):
	case <-time.After(time.Minute):
		t.Fatalf("Done(%s) never closed", id)
	}
	st, ok := s.Status(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	return st
}

// TestDoneClosesOnEveryTerminalPath: the channel Done hands out is closed
// when — and only when — the job is terminal, whichever way it got there:
// success, a failed stage, a recovered worker panic, a killed server. A
// second attempt to fail a terminal job must find the channel already
// closed and leave it alone (a double close would panic the process).
func TestDoneClosesOnEveryTerminalPath(t *testing.T) {
	s := newTestServer(t, Config{
		Threads: 4, MSAWorkers: 2, GPUWorkers: 1,
		PanicHook: func(point string, ordinal int) {
			if point == "msa" && ordinal == 2 {
				panic("injected msa panic")
			}
		},
	})
	if s.Done("j9999-nope") != nil {
		t.Fatal("Done of an unknown id is not nil")
	}
	okID, err := s.Submit(Request{Sample: "1YY9"})
	if err != nil {
		t.Fatal(err)
	}
	lateID, err := s.Submit(Request{Sample: "1YY9", Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	panicID, err := s.Submit(Request{Sample: "1YY9"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done(okID):
		t.Fatal("Done closed before the server started")
	default:
	}
	s.Start()
	if st := awaitDone(t, s, okID); st.State != "done" {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	if st := awaitDone(t, s, lateID); st.State != "failed" || st.ErrorClass != "timeout" {
		t.Fatalf("expired job = %s/%s, want failed/timeout", st.State, st.ErrorClass)
	}
	if st := awaitDone(t, s, panicID); st.State != "failed" || st.ErrorClass != "panic" {
		t.Fatalf("panicked job = %s/%s, want failed/panic", st.State, st.ErrorClass)
	}
	if _, ok := s.Result(okID); !ok {
		t.Fatal("Done closed before the result was readable")
	}
	// Terminal is final: failing the finished jobs again neither reopens
	// nor re-closes anything.
	for _, id := range []string{okID, lateID, panicID} {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		s.fail(j, errors.New("late failure"))
	}
	if st, _ := s.Status(okID); st.State != "done" {
		t.Fatalf("a late failure moved a done job to %s", st.State)
	}
}

// TestDoneClosesOnKill: killing a started server fails its queued and
// in-flight jobs, and every one of them still closes its channel.
func TestDoneClosesOnKill(t *testing.T) {
	s := newTestServer(t, Config{Threads: 2, MSAWorkers: 1, GPUWorkers: 1})
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := s.Submit(Request{Sample: "2PV7"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Start()
	s.Kill()
	var last JobStatus
	for _, id := range ids {
		last = awaitDone(t, s, id)
	}
	if last.State != "failed" {
		t.Fatalf("last queued job on a killed server = %s, want failed", last.State)
	}
}

// TestDoneWakesEveryWaiter: the channel is shared, so any number of
// waiters parked before the job ran all wake on the one close.
func TestDoneWakesEveryWaiter(t *testing.T) {
	s := newTestServer(t, Config{Threads: 4, MSAWorkers: 1, GPUWorkers: 1})
	id, err := s.Submit(Request{Sample: "1YY9"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-s.Done(id)
		}()
	}
	s.Start()
	woke := make(chan struct{})
	go func() {
		wg.Wait()
		close(woke)
	}()
	select {
	case <-woke:
	case <-time.After(time.Minute):
		t.Fatal("not every waiter woke")
	}
}

// TestDoneContract: a waiter woken by Done finds its own job in every view
// — Status, the request counters, the latency summary and the modeled
// schedule — whichever way the job ended. 64 waiters share 32 jobs that
// succeed, time out and panic; each polls its channel, so it runs the
// moment the channel closes rather than after the closing worker moves on.
// Since every view only grows, a waiter checks that each one counts at
// least the jobs whose channels it has seen closed, its own among them.
func TestDoneContract(t *testing.T) {
	s := newTestServer(t, Config{
		Threads: 1, MSAWorkers: 1, GPUWorkers: 1, Cache: cache.New(0),
		PanicHook: func(point string, ordinal int) {
			if ordinal%8 == 3 && point == "msa" || ordinal%8 == 7 && point == "inference" {
				panic("injected " + point + " panic")
			}
		},
	})
	const jobs = 32
	ids := make([]string, jobs)
	class := make(map[string]string, jobs) // "done", or the failure class
	for i := range ids {
		req := Request{Sample: "2PV7"}
		if i%4 == 1 {
			req.Timeout = time.Nanosecond
		}
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		class[id] = []string{"done", "timeout", "done", "panic"}[i%4]
	}
	// The channels are taken up front: a waiter that called Done or read a
	// view under the server's lock would queue behind the closing worker.
	chans := make(map[string]<-chan struct{}, jobs)
	for _, id := range ids {
		chans[id] = s.Done(id)
	}
	var wg sync.WaitGroup
	for w := 0; w < 64; w++ {
		id := ids[w%jobs]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for polling := true; polling; {
				select {
				case <-chans[id]:
					polling = false
				default:
					runtime.Gosched()
				}
			}
			closed := make(map[string]int64) // class -> jobs seen terminal
			for other, ch := range chans {
				select {
				case <-ch:
					closed[class[other]]++
				default:
				}
			}
			counters := s.Metrics().Snapshot()
			st, ok := s.Status(id)
			switch {
			case !ok:
				t.Errorf("%s: no status", id)
				return
			case class[id] == "done" && st.State != "done",
				class[id] != "done" && (st.State != "failed" || st.ErrorClass != class[id]):
				t.Errorf("%s woke at %s/%s, want %s", id, st.State, st.ErrorClass, class[id])
				return
			}
			if got := counters["requests_completed"]; got < closed["done"] {
				t.Errorf("%s woke: requests_completed %d, %d done jobs closed", id, got, closed["done"])
			}
			for _, c := range []string{"timeout", "panic"} {
				if got := counters["requests_failed_"+c]; got < closed[c] {
					t.Errorf("%s woke: requests_failed_%s %d, %d such jobs closed", id, c, got, closed[c])
				}
			}
			if class[id] != "done" {
				return
			}
			if n := s.MetricsSnapshot().Latency.Count; n < int(closed["done"]) {
				t.Errorf("%s woke: latency count %d, %d done jobs closed", id, n, closed["done"])
			}
			found := false
			for _, it := range s.ModeledSchedule(1, 1).Items {
				found = found || it.ID == id
			}
			if !found {
				t.Errorf("%s woke: not in the modeled schedule", id)
			}
		}()
	}
	s.Start()
	wg.Wait()
}
