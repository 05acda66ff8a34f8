package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"afsysbench/internal/cache"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Threads: 4, MSAWorkers: 1, Cache: cache.New(0)})
	s.Start()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	// Health first.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Unknown sample is rejected before admission.
	resp = postJSON(t, ts.URL+"/v1/submit", SubmitRequest{Sample: "no-such"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown sample: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Submit and poll to completion.
	resp = postJSON(t, ts.URL+"/v1/submit", SubmitRequest{Sample: "1YY9"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	sub := decodeBody[SubmitResponse](t, resp)
	if sub.ID == "" {
		t.Fatal("empty job id")
	}
	deadline := time.Now().Add(time.Minute)
	var st JobStatus
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job status: %d", resp.StatusCode)
		}
		st = decodeBody[JobStatus](t, resp)
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != "done" || st.Sample != "1YY9" {
		t.Fatalf("final status = %+v", st)
	}
	if st.MSASeconds <= 0 || st.InferenceSeconds <= 0 {
		t.Fatalf("missing stage seconds: %+v", st)
	}

	// Unknown job id.
	resp, err = http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Metrics reflect the run.
	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeBody[MetricsSnapshot](t, resp)
	if m.Counters["requests_completed"] != 1 || m.Cache.Misses != 3 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.DiskCache != nil {
		t.Fatalf("disk tier stats present without a disk tier: %+v", m.DiskCache)
	}
	if m.Latency.Count != 1 || m.Latency.P99Ms <= 0 {
		t.Fatalf("latency summary = %+v", m.Latency)
	}
}

// TestHTTPSubmitBodyBound: a submit body over the 64 KiB bound answers 413
// and admits nothing; a malformed small one is still a 400.
func TestHTTPSubmitBodyBound(t *testing.T) {
	s := newTestServer(t, Config{Threads: 4, MSAWorkers: 1})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	admitted := s.Metrics().Get("requests_admitted")

	big := `{"sample":"1YY9","tenant":"` + strings.Repeat("a", 1<<20) + `"}`
	resp, err := http.Post(ts.URL+"/v1/submit", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("1 MiB body: status %d, want 413", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/submit", "application/json", strings.NewReader(`{"sample":`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d, want 400", resp.StatusCode)
	}
	if got := s.Metrics().Get("requests_admitted"); got != admitted {
		t.Fatalf("requests_admitted moved %d -> %d on rejected bodies", admitted, got)
	}
}

func TestHTTPOverloadMapsTo503(t *testing.T) {
	// No workers started: the queue fills and stays full.
	s := NewWithSuite(sharedSuite, Config{QueueDepth: 1})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/submit", SubmitRequest{Sample: "1YY9"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/submit", SubmitRequest{Sample: "1YY9"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	// Drain the admitted job so the shared pools stay healthy.
	s.Start()
	defer s.Stop()
	deadline := time.Now().Add(time.Minute)
	for {
		sts := s.Statuses()
		if len(sts) == 1 && (sts[0].State == "done" || sts[0].State == "failed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admitted job never drained")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSummarizePercentiles(t *testing.T) {
	if p := Summarize(nil); p.Count != 0 || p.P99Ms != 0 {
		t.Fatalf("empty summary = %+v", p)
	}
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	p := Summarize(ms)
	if p.Count != 100 || p.MaxMs != 100 {
		t.Fatalf("summary = %+v", p)
	}
	if p.P50Ms < 50 || p.P50Ms > 51 || p.P99Ms < 99 || p.P99Ms > 100 {
		t.Fatalf("percentiles = %+v", p)
	}
}
