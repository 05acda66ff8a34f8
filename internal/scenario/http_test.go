package scenario

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"afsysbench/internal/serve"
)

// startOn503 is the HTTP client's transport for the end-to-end test: the
// first 503 it sees starts the (so far idle) server and waits until the
// workers have taken every queued job, so exactly one request of the trace
// finds the admission queue full.
type startOn503 struct {
	once   sync.Once
	s      *serve.Server
	popped *sync.WaitGroup
}

func (rt *startOn503) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusServiceUnavailable {
		rt.once.Do(func() {
			rt.s.Start()
			rt.popped.Wait()
		})
	}
	return resp, err
}

// digests maps each sample to the result digest of its done jobs, failing
// if two done jobs of one sample disagree.
func digests(t *testing.T, s *serve.Server) (bySample map[string]string, done int) {
	t.Helper()
	bySample = make(map[string]string)
	for _, st := range s.Statuses() {
		if st.State != "done" {
			continue
		}
		done++
		res, ok := s.Result(st.ID)
		if !ok {
			t.Fatalf("done job %s has no result", st.ID)
		}
		if prev, seen := bySample[st.Sample]; seen && prev != res.Digest() {
			t.Fatalf("two %s jobs digest differently:\n%s\n%s", st.Sample, prev, res.Digest())
		}
		bySample[st.Sample] = res.Digest()
	}
	return bySample, done
}

// TestHTTPTransportMatchesInProc drives the north star's end-to-end path —
// closed-loop clients over HTTP against the daemon's handler — and holds it
// to the in-process transport over the same trace. Three clients open on an
// idle server with a queue of two, so two submissions are accepted (202)
// and the third is shed (503); that 503 starts the server. The shed client
// moves on to an unknown sample (400, counted failed), and the last two
// requests find room.
func TestHTTPTransportMatchesInProc(t *testing.T) {
	trace := []string{"2PV7", "2PV7", "2PV7", "no-such", "7RCE", "2PV7"}
	var popped sync.WaitGroup
	popped.Add(2)
	s := serve.NewWithSuite(sharedSuite, serve.Config{
		Threads: 2, MSAWorkers: 2, GPUWorkers: 1, QueueDepth: 2,
		// The "msa" guard point marks a worker taking a job off the queue.
		PanicHook: func(point string, ordinal int) {
			if point == "msa" && ordinal < 2 {
				popped.Done()
			}
		},
	})
	defer s.Stop()
	ts := httptest.NewServer(serve.NewHandler(s))
	defer ts.Close()
	client := &http.Client{Timeout: time.Minute, Transport: &startOn503{s: s, popped: &popped}}

	st := ClosedLoop(HTTP{Base: ts.URL, Client: client}, trace, 3, 2)
	if st.Requests != 6 || st.Completed != 4 || st.Shed != 1 || st.Failed != 1 {
		t.Fatalf("HTTP closed loop: %+v", st)
	}
	if got := s.Metrics().Get("requests_shed_queue_full"); got != 1 {
		t.Fatalf("server counted %d queue-full sheds, want 1", got)
	}

	ref := serve.NewWithSuite(sharedSuite, serve.Config{Threads: 2, MSAWorkers: 2, GPUWorkers: 1})
	defer ref.Stop()
	ref.Start()
	if rst := ClosedLoop(InProc{S: ref}, trace, 3, 2); rst.Completed != 5 || rst.Shed != 0 || rst.Failed != 1 {
		t.Fatalf("in-process closed loop: %+v", rst)
	}
	want, _ := digests(t, ref)
	got, done := digests(t, s)
	if done != 4 || len(got) != 2 {
		t.Fatalf("HTTP server finished %d jobs over samples %v, want 4 over 2PV7 and 7RCE", done, got)
	}
	for sample, d := range got {
		if d != want[sample] {
			t.Errorf("%s over HTTP digests\n%s\nin-process\n%s", sample, d, want[sample])
		}
	}
}

// TestHTTPWaitUnknownJob: a job id the daemon does not know (it restarted
// since the submit) is an error, not a poll loop that never ends.
func TestHTTPWaitUnknownJob(t *testing.T) {
	s := serve.NewWithSuite(sharedSuite, serve.Config{})
	defer s.Stop()
	ts := httptest.NewServer(serve.NewHandler(s))
	defer ts.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := HTTP{Base: ts.URL, Client: ts.Client()}.Wait("j9999-nope")
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("waiting for an unknown job returned no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait is still polling a job the server answers 404 for")
	}
}
