package serve

import (
	"errors"
	"sync"
	"testing"
	"time"
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
	s.mu.Lock()
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	for _, job := range jobs {
		s.fail(job, errors.New("late failure"))
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
