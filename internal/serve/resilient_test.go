package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"afsysbench/internal/core"
	"afsysbench/internal/resilience"
)

func mustFaults(t *testing.T, spec string) resilience.Faults {
	t.Helper()
	fs, err := resilience.ParseFaults(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestErrorClassTable covers every resilience error type the serving layer
// can surface, including wrapped forms.
// poolShortfall is "" when the live-worker gauges of /v1/metrics read the
// configured pool sizes, and what they read otherwise.
func poolShortfall(s *Server) string {
	g := s.MetricsSnapshot().Gauges
	msa, gpu := g["msa_workers_live"], g["gpu_workers_live"]
	if msa == int64(s.cfg.MSAWorkers) && gpu == int64(s.cfg.GPUWorkers) {
		return ""
	}
	return fmt.Sprintf("msa %d of %d live, gpu %d of %d", msa, s.cfg.MSAWorkers, gpu, s.cfg.GPUWorkers)
}

func TestErrorClassTable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"transient fault", &resilience.FaultError{Class: resilience.Transient, DB: "uniref_s", Attempt: 1}, "fault"},
		{"permanent fault", &resilience.FaultError{Class: resilience.Permanent, DB: "uniref_s"}, "fault"},
		{"chain fault", &resilience.FaultError{Class: resilience.ChainTransient, DB: "chain/B", Attempt: 1}, "fault"},
		{"wrapped chain fault", fmt.Errorf("msa 1YY9 chain B: %w", &resilience.FaultError{Class: resilience.ChainTransient, DB: "chain/B"}), "fault"},
		{"db unavailable", resilience.ErrDBUnavailable{DB: "uniref_s", Attempts: 4, Cause: &resilience.FaultError{Class: resilience.Permanent, DB: "uniref_s"}}, "fault"},
		{"overloaded queue-full", resilience.ErrOverloaded{Queued: 64, Capacity: 64}, "overloaded-queue-full"},
		{"overloaded rate-limited", resilience.ErrOverloaded{Reason: resilience.ShedRateLimited, Tenant: "storm"}, "overloaded-rate-limited"},
		{"overloaded brownout", resilience.ErrOverloaded{Reason: resilience.ShedBrownout, Tenant: "storm"}, "overloaded-brownout"},
		{"wrapped overloaded", fmt.Errorf("submit: %w", resilience.ErrOverloaded{Reason: resilience.ShedRateLimited}), "overloaded-rate-limited"},
		{"budget timeout", resilience.ErrStageTimeout{Stage: "inference", BudgetSeconds: 1, NeedSeconds: 2}, "timeout"},
		{"deadline timeout", resilience.ErrStageTimeout{Stage: "msa", Cause: context.DeadlineExceeded}, "timeout"},
		{"raw deadline", context.DeadlineExceeded, "timeout"},
		{"raw cancel", context.Canceled, "timeout"},
		{"wrapped cancel", fmt.Errorf("stage aborted: %w", context.Canceled), "timeout"},
		{"oom", core.ErrProjectedOOM{}, "oom"},
		{"panic", resilience.ErrPanic{Stage: "msa", Value: "boom"}, "panic"},
		{"handoff panic", resilience.ErrPanic{Stage: "handoff", Value: "boom"}, "panic"},
		{"plain error", errors.New("unclassified"), "error"},
	}
	for _, tc := range cases {
		if got := ErrorClass(tc.err); got != tc.want {
			t.Errorf("%s: ErrorClass = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestPanicIsolation: a worker panic fails only the panicking job (class
// "panic"); sibling jobs complete and both pools stay at full strength.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{
		Threads: 4, MSAWorkers: 2, GPUWorkers: 1,
		PanicHook: func(point string, ordinal int) {
			if point == "msa" && ordinal == 1 {
				panic("chaos: injected msa panic")
			}
		},
	})
	statuses := runTrace(t, s, []string{"1YY9", "1YY9", "1YY9"})

	if statuses[1].State != "failed" || statuses[1].ErrorClass != "panic" {
		t.Fatalf("panicked job state=%s class=%s, want failed/panic", statuses[1].State, statuses[1].ErrorClass)
	}
	for _, i := range []int{0, 2} {
		if statuses[i].State != "done" {
			t.Fatalf("sibling job %d state=%s (%s), want done", i, statuses[i].State, statuses[i].Error)
		}
	}
	if got := s.Metrics().Get("worker_panics"); got != 1 {
		t.Errorf("worker_panics = %d, want 1", got)
	}
	if short := poolShortfall(s); short != "" {
		t.Fatalf("pool lost workers after panic: %s", short)
	}
	// The server still serves.
	id, err := s.Submit(Request{Sample: "1YY9"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status(id); st.State != "done" {
		t.Fatalf("post-panic submit state=%s (%s)", st.State, st.Error)
	}
}

// TestHandoffFaultReachesTerminalState is the job-drain regression test: a
// fault injected exactly at the MSA→GPU hand-off (after the MSA stage
// succeeded, before the job reaches the inference queue) must still drive
// the job to a terminal state — previously such a job was lost between the
// pools and WaitIdle hung forever.
func TestHandoffFaultReachesTerminalState(t *testing.T) {
	s := newTestServer(t, Config{
		Threads: 4, MSAWorkers: 1, GPUWorkers: 1,
		PanicHook: func(point string, ordinal int) {
			if point == "handoff" && ordinal == 0 {
				panic("chaos: injected handoff fault")
			}
		},
	})
	s.Start()
	id0, err := s.Submit(Request{Sample: "1YY9"})
	if err != nil {
		t.Fatal(err)
	}
	id1, err := s.Submit(Request{Sample: "2PV7"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("pipeline did not drain after hand-off fault: %v", err)
	}
	st0, _ := s.Status(id0)
	if st0.State != "failed" || st0.ErrorClass != "panic" {
		t.Fatalf("hand-off job state=%s class=%s, want failed/panic", st0.State, st0.ErrorClass)
	}
	if st1, _ := s.Status(id1); st1.State != "done" {
		t.Fatalf("follow-up job state=%s (%s)", st1.State, st1.Error)
	}
	if short := poolShortfall(s); short != "" {
		t.Fatalf("pool lost a worker to the hand-off fault: %s", short)
	}
}

// TestBreakerOpensSkipsAndAnnotates: a database that fails every request
// trips its breaker after BreakerThreshold consecutive failures; later
// requests skip it without probing, succeed degraded, and are annotated
// partial_msa. The readiness probe names the open breaker.
func TestBreakerOpensSkipsAndAnnotates(t *testing.T) {
	s := newTestServer(t, Config{
		Threads: 2, MSAWorkers: 1, GPUWorkers: 1,
		Faults:           mustFaults(t, "permanent:uniref_s"),
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // stays open for the whole test
	})
	statuses := runTrace(t, s, []string{"2PV7", "2PV7", "2PV7", "2PV7"})
	for i, st := range statuses {
		if st.State != "done" {
			t.Fatalf("job %d state=%s (%s)", i, st.State, st.Error)
		}
		if !st.Degraded {
			t.Fatalf("job %d not degraded despite permanent fault", i)
		}
	}
	// Requests 0 and 1 probed the dark shard and fed the breaker; 2 and 3
	// found it open and skipped.
	if statuses[0].PartialMSA || statuses[1].PartialMSA {
		t.Error("pre-trip requests marked partial_msa")
	}
	if !statuses[2].PartialMSA || !statuses[3].PartialMSA {
		t.Errorf("post-trip requests not marked partial_msa: %+v %+v", statuses[2], statuses[3])
	}
	if got := s.Metrics().Get("breaker_to_open"); got != 1 {
		t.Errorf("breaker_to_open = %d, want 1", got)
	}
	if got := s.Metrics().Get("breaker_rejections"); got != 2 {
		t.Errorf("breaker_rejections = %d, want 2", got)
	}
	if snap := s.breakers["uniref_s"].Snapshot(); snap.State != "open" || snap.Trips != 1 {
		t.Errorf("uniref_s breaker snapshot = %+v", snap)
	}
	// The skip is visible in the resilience event stream.
	res, ok := s.Result(statuses[2].ID)
	if !ok {
		t.Fatal("no result for post-trip job")
	}
	found := false
	for _, ev := range res.Resilience.Events {
		if ev.Kind == resilience.KindBreakerSkip && ev.DB == "uniref_s" {
			found = true
		}
	}
	if !found {
		t.Error("no breaker-skip event recorded for the skipped database")
	}

	rd := s.Ready()
	if rd.Ready {
		t.Fatal("server with an open breaker reported ready")
	}
	if len(rd.OpenBreakers) != 1 || rd.OpenBreakers[0] != "uniref_s" {
		t.Fatalf("open breakers = %v, want [uniref_s]", rd.OpenBreakers)
	}
}

// TestBreakerHalfOpenRecovery: after the cooldown, one request probes the
// database; a healthy probe closes the breaker and service returns to the
// full profile.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	s := newTestServer(t, Config{
		Threads: 2, MSAWorkers: 1, GPUWorkers: 1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Millisecond,
	})
	b := s.breakers["uniref_s"]
	cause := errors.New("shard dark")
	b.Failure(cause)
	b.Failure(cause)
	if b.State() != resilience.BreakerOpen {
		t.Fatal("breaker did not open")
	}
	time.Sleep(5 * time.Millisecond) // let the cooldown elapse

	statuses := runTrace(t, s, []string{"2PV7"})
	if statuses[0].State != "done" {
		t.Fatalf("probe request state=%s (%s)", statuses[0].State, statuses[0].Error)
	}
	if statuses[0].PartialMSA || statuses[0].Degraded {
		t.Error("healthy probe request degraded")
	}
	if b.State() != resilience.BreakerClosed {
		t.Fatalf("breaker state after healthy probe = %v, want closed", b.State())
	}
	if !s.Ready().Ready {
		t.Error("recovered server not ready")
	}
}

// TestMSARetryRerunsOnlyFailedChains is the serving layer's headline
// retry test: on a server with no cache, a fault on every chain of 1YY9 is
// retried inside each chain's own search — one chain-retry event a chain,
// msa_chain_retries 3 — and the result's digest is a fault-free server's,
// at one thread and at three. A fault outlasting the retry budget fails
// the request with error class fault, and its four faulted searches still
// count.
func TestMSARetryRerunsOnlyFailedChains(t *testing.T) {
	for _, threads := range []int{1, 3} {
		clean := newTestServer(t, Config{Threads: threads})
		cleanStatuses := runTrace(t, clean, []string{"1YY9"})
		cleanRes, _ := clean.Result(cleanStatuses[0].ID)

		s := newTestServer(t, Config{Threads: threads, Faults: mustFaults(t, "chainfault:*:1")})
		statuses := runTrace(t, s, []string{"1YY9"})
		if statuses[0].State != "done" {
			t.Fatalf("T%d: state=%s (%s), want done via retry", threads, statuses[0].State, statuses[0].Error)
		}
		if got := s.Metrics().Get("msa_chain_retries"); got != 3 {
			t.Errorf("T%d: msa_chain_retries = %d, want 3", threads, got)
		}
		res, _ := s.Result(statuses[0].ID)
		var retried []string
		for _, ev := range res.Resilience.Events {
			if ev.Kind == resilience.KindChainRetry {
				retried = append(retried, ev.Detail)
			}
		}
		want := []string{"search 1 of chain A faulted", "search 1 of chain B faulted", "search 1 of chain C faulted"}
		if !reflect.DeepEqual(retried, want) {
			t.Errorf("T%d: chain-retry events %q, want %q", threads, retried, want)
		}
		if res.Digest() != cleanRes.Digest() {
			t.Errorf("T%d: retried result's digest differs from the fault-free run's", threads)
		}
	}

	s := newTestServer(t, Config{Threads: 2, Faults: mustFaults(t, "chainfault:B:4")})
	st := runTrace(t, s, []string{"1YY9"})[0]
	if st.State != "failed" || st.ErrorClass != "fault" {
		t.Errorf("chainfault:B:4: state=%s class=%q (%s), want failed with class fault", st.State, st.ErrorClass, st.Error)
	}
	if got := s.Metrics().Get("msa_chain_retries"); got != 4 {
		t.Errorf("chainfault:B:4: msa_chain_retries = %d, want 4 (every faulted search of the failed stage)", got)
	}
}

// TestReadyzEndpoint: readyz returns 200 on a healthy started server, 503
// before Start, and 503 naming the breaker once one opens.
func TestReadyzEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Threads: 2, MSAWorkers: 1, GPUWorkers: 1})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	get := func() (int, Readiness) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rd Readiness
		if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rd
	}

	if code, rd := get(); code != 503 || rd.Ready {
		t.Fatalf("unstarted server: code=%d ready=%v, want 503/false", code, rd.Ready)
	}
	s.Start()
	if code, rd := get(); code != 200 || !rd.Ready {
		t.Fatalf("started server: code=%d ready=%v, want 200/true", code, rd.Ready)
	}
	// Trip a breaker by hand; readyz must flip and name it.
	b := s.breakers["rfam_s"]
	for i := 0; i < s.cfg.BreakerThreshold; i++ {
		b.Failure(errors.New("dark"))
	}
	code, rd := get()
	if code != 503 || rd.Ready {
		t.Fatalf("open breaker: code=%d ready=%v, want 503/false", code, rd.Ready)
	}
	if len(rd.OpenBreakers) != 1 || rd.OpenBreakers[0] != "rfam_s" {
		t.Fatalf("open breakers = %v, want [rfam_s]", rd.OpenBreakers)
	}
	if rd.Breakers["rfam_s"].State != "open" {
		t.Fatalf("breaker detail missing: %+v", rd.Breakers)
	}
}

// TestNoGoroutineLeakUnderFaultLoad: a lifecycle full of panics, chain
// faults and retries must still release every goroutine by the time
// WaitIdle and Stop return.
func TestNoGoroutineLeakUnderFaultLoad(t *testing.T) {
	warm := newTestServer(t, Config{Threads: 2, MSAWorkers: 2})
	runTrace(t, warm, []string{"1YY9"})
	warm.Stop()

	baseline := runtime.NumGoroutine()
	s := NewWithSuite(sharedSuite, Config{
		Threads: 2, MSAWorkers: 2, GPUWorkers: 1,
		// Every chain faults exactly once and is retried in place.
		Faults: mustFaults(t, "chainfault:*:1"),
		PanicHook: func(point string, ordinal int) {
			if point == "inference" && ordinal == 1 {
				panic("chaos: injected inference panic")
			}
		},
	})
	statuses := runTrace(t, s, []string{"1YY9", "2PV7", "1YY9", "2PV7"})
	for i, st := range statuses {
		if st.State != "done" && st.State != "failed" {
			t.Fatalf("job %d not terminal: %s", i, st.State)
		}
	}
	if short := poolShortfall(s); short != "" {
		t.Fatalf("pool lost workers under fault load: %s", short)
	}
	s.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked under fault load: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
