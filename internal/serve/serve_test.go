package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"afsysbench/internal/cache"
	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
	"afsysbench/internal/resilience"
)

// sharedSuite is built once: the synthetic databases are identical across
// tests and rebuilding them per test dominates runtime.
var sharedSuite = func() *core.Suite {
	s, err := core.NewSuite()
	if err != nil {
		panic(err)
	}
	return s
}()

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := NewWithSuite(sharedSuite, cfg)
	t.Cleanup(s.Stop)
	return s
}

// runTrace submits the trace, drains it, and returns per-job statuses in
// submit order.
func runTrace(t *testing.T, s *Server, trace []string) []JobStatus {
	t.Helper()
	s.Start()
	for _, sample := range trace {
		if _, err := s.Submit(Request{Sample: sample}); err != nil {
			t.Fatalf("submit %s: %v", sample, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	return s.Statuses()
}

// fingerprint captures everything about a result that must be bitwise
// stable across pool sizes and cache configurations.
func fingerprint(t *testing.T, s *Server, id string) string {
	t.Helper()
	res, ok := s.Result(id)
	if !ok {
		t.Fatalf("no result for %s", id)
	}
	return fmt.Sprintf("%s|%x|%x|%x|%x|%x|%d|%v",
		res.Sample,
		res.MSASeconds, res.MSACPUSeconds, res.MSADiskSeconds,
		res.Inference.ComputeSeconds, res.Inference.Total(),
		res.MSAData.Features.Bytes(), res.Resilience.Degraded)
}

// TestDeterminismAcrossPoolSizes is the scheduler's core contract: a fixed
// request trace produces bitwise-identical per-request results whatever
// the pool sizes, and whether or not the cache is enabled.
func TestDeterminismAcrossPoolSizes(t *testing.T) {
	trace := []string{"promo", "1YY9", "1YY9", "promo"}
	configs := []Config{
		{Threads: 4, MSAWorkers: 1, GPUWorkers: 1, Cache: cache.New(0)},
		{Threads: 4, MSAWorkers: 4, GPUWorkers: 2, Cache: cache.New(0)},
		{Threads: 4, MSAWorkers: 2, GPUWorkers: 1, Cache: nil}, // cache off
	}
	var want []string
	for ci, cfg := range configs {
		s := newTestServer(t, cfg)
		statuses := runTrace(t, s, trace)
		var got []string
		for _, st := range statuses {
			if st.State != "done" {
				t.Fatalf("config %d job %s: state %s (err %s)", ci, st.ID, st.State, st.Error)
			}
			got = append(got, fingerprint(t, s, st.ID))
		}
		if ci == 0 {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("config %d request %d diverged:\n  want %s\n  got  %s", ci, i, want[i], got[i])
			}
		}
	}
}

// TestCacheHitAccounting checks that repeats of a query are served from
// the cache and charged zero MSA seconds, while distinct queries miss.
// The cache is chain-keyed: 1YY9 and promo each carry three protein
// chains, so the two first sightings pay six chain searches and the two
// repeats are served six cached chains.
func TestCacheHitAccounting(t *testing.T) {
	s := newTestServer(t, Config{Threads: 4, MSAWorkers: 1, Cache: cache.New(0)})
	statuses := runTrace(t, s, []string{"1YY9", "1YY9", "promo", "1YY9"})

	if statuses[0].CacheHit || statuses[2].CacheHit {
		t.Fatal("first sighting of a query must miss")
	}
	if !statuses[1].CacheHit || !statuses[3].CacheHit {
		t.Fatal("repeat of a query must hit")
	}
	if statuses[1].MSASeconds != 0 || statuses[3].MSASeconds != 0 {
		t.Fatalf("cache hits must charge 0 MSA seconds, got %v / %v",
			statuses[1].MSASeconds, statuses[3].MSASeconds)
	}
	if statuses[0].MSASeconds <= 0 {
		t.Fatal("miss charged no MSA seconds")
	}
	if statuses[0].ChainsFresh != 3 || statuses[0].ChainsMem != 0 {
		t.Fatalf("first sighting chains = %+v, want 3 fresh", statuses[0])
	}
	if statuses[1].ChainsMem != 3 || statuses[1].ChainsFresh != 0 {
		t.Fatalf("repeat chains = %+v, want 3 from memory", statuses[1])
	}
	st := s.Config().Cache.Stats()
	if st.Misses != 6 || st.Hits+st.Shared != 6 {
		t.Fatalf("cache stats = %+v, want 6 chain misses and 6 served", st)
	}
}

// TestDeterministicShed: with no workers draining the queue, admission is
// a pure function of the trace and the queue bound — the same trace sheds
// the same requests every time.
func TestDeterministicShed(t *testing.T) {
	trace := []string{"1YY9", "promo", "1YY9", "promo", "1YY9"}
	shedPattern := func() []bool {
		s := NewWithSuite(sharedSuite, Config{Threads: 4, QueueDepth: 2})
		var pattern []bool
		for _, sample := range trace {
			_, err := s.Submit(Request{Sample: sample})
			switch {
			case err == nil:
				pattern = append(pattern, false)
			case resilience.IsOverloaded(err):
				pattern = append(pattern, true)
			default:
				t.Fatalf("submit %s: unexpected error %v", sample, err)
			}
		}
		// Drain what was admitted so the suite's pools stay healthy.
		s.Start()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.WaitIdle(ctx); err != nil {
			t.Fatalf("WaitIdle: %v", err)
		}
		s.Stop()
		return pattern
	}
	first := shedPattern()
	want := []bool{false, false, true, true, true}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("shed pattern = %v, want %v", first, want)
		}
	}
	second := shedPattern()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("shed decisions not deterministic: %v vs %v", first, second)
		}
	}
	// The shed error itself is classed for metrics and the HTTP layer.
	s := NewWithSuite(sharedSuite, Config{QueueDepth: 1})
	defer s.Stop()
	if _, err := s.Submit(Request{Sample: "1YY9"}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err := s.Submit(Request{Sample: "1YY9"})
	if !resilience.IsOverloaded(err) {
		t.Fatalf("expected overload, got %v", err)
	}
	if ErrorClass(err) != "overloaded-queue-full" {
		t.Fatalf("ErrorClass = %q", ErrorClass(err))
	}
	if got := s.Metrics().Get("requests_shed"); got != 1 {
		t.Fatalf("requests_shed = %d", got)
	}

	// The admission queue is the single-key WFQ: depth+k submits before
	// Start shed exactly the last k, each naming the full queue, readiness
	// reports the saturation, and the pool pops in submit order whatever
	// its size.
	const depth, extra = 5, 3
	for _, workers := range []int{1, 4} {
		s := NewWithSuite(sharedSuite, Config{Threads: 4, MSAWorkers: workers, QueueDepth: depth})
		if s.Ready().QueueSaturated {
			t.Fatal("empty queue reports saturation")
		}
		for i := 0; i < depth+extra; i++ {
			_, err := s.Submit(Request{Sample: "2PV7"})
			if i < depth {
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				continue
			}
			var eo resilience.ErrOverloaded
			if !errors.As(err, &eo) {
				t.Fatalf("submit %d: expected overload, got %v", i, err)
			}
			if eo.Queued != depth || eo.Capacity != depth || eo.Reason != resilience.ShedQueueFull {
				t.Fatalf("submit %d shed with %+v, want queue-full at %d/%d", i, eo, depth, depth)
			}
		}
		if got := s.Metrics().Get("requests_shed_queue_full"); got != extra {
			t.Fatalf("requests_shed_queue_full = %d, want %d", got, extra)
		}
		if r := s.Ready(); !r.QueueSaturated || r.QueueDepth != depth || r.QueueCapacity != depth {
			t.Fatalf("readiness of a full queue = %+v", r)
		}
		s.Start()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if err := s.WaitIdle(ctx); err != nil {
			t.Fatalf("WaitIdle: %v", err)
		}
		cancel()
		s.Stop()
		for i, job := range s.order {
			if job.dispatchSeq != i {
				t.Errorf("%d workers: job %d dispatched at seq %d, want submit order", workers, i, job.dispatchSeq)
			}
		}
	}
}

// TestWaitIdleTimeoutLeaksNothing: a WaitIdle that gives up must take its
// waiter goroutine with it. On a never-started server the one admitted job
// stays pending forever, so a leaked waiter would never be released.
func TestWaitIdleTimeoutLeaksNothing(t *testing.T) {
	s := NewWithSuite(sharedSuite, Config{Threads: 4})
	defer s.Stop()
	if _, err := s.Submit(Request{Sample: "2PV7"}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		err := s.WaitIdle(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: WaitIdle = %v, want deadline exceeded", i, err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d after 50 timed-out WaitIdle calls", before, after)
	}
}

// TestDeadlineShedsCleanly: an expired per-request deadline fails that
// request with a timeout class and leaves the server healthy for the next.
func TestDeadlineShedsCleanly(t *testing.T) {
	s := newTestServer(t, Config{Threads: 4, MSAWorkers: 1})
	s.Start()
	id, err := s.Submit(Request{Sample: "promo", Timeout: time.Millisecond})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	st, _ := s.Status(id)
	if st.State != "failed" {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if st.ErrorClass != "timeout" {
		t.Fatalf("error class = %q (%s), want timeout", st.ErrorClass, st.Error)
	}
	var timeout resilience.ErrStageTimeout
	s.mu.Lock()
	jobErr := s.jobs[id].err
	s.mu.Unlock()
	if !errors.As(jobErr, &timeout) {
		t.Fatalf("job error = %v, want ErrStageTimeout", jobErr)
	}
	if got := s.Metrics().Get("requests_failed_timeout"); got != 1 {
		t.Fatalf("requests_failed_timeout = %d", got)
	}

	// The failed request must not wedge the pipeline.
	id2, err := s.Submit(Request{Sample: "1YY9"})
	if err != nil {
		t.Fatalf("follow-up submit: %v", err)
	}
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	if st, _ := s.Status(id2); st.State != "done" {
		t.Fatalf("follow-up state = %s (%s)", st.State, st.Error)
	}
}

// TestNoGoroutineLeak runs a full server lifecycle and checks every
// scheduler goroutine is released by Stop. The shared compute pools of
// internal/parallel live for the process, so they are warmed up before
// the baseline is taken.
func TestNoGoroutineLeak(t *testing.T) {
	warm := newTestServer(t, Config{Threads: 4, MSAWorkers: 2, Cache: cache.New(0)})
	runTrace(t, warm, []string{"1YY9"})
	warm.Stop()

	baseline := runtime.NumGoroutine()
	s := NewWithSuite(sharedSuite, Config{Threads: 4, MSAWorkers: 4, GPUWorkers: 2, Cache: cache.New(0)})
	runTrace(t, s, []string{"1YY9", "1YY9", "1YY9"})
	s.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCacheKeyComposition is the satellite regression test: the chain
// cache key must cover the chain content, the database-set identity, the
// profile scope and the thread count, so a changed database set, profile
// or thread setting can never be served a stale entry — while the
// per-complex chain label and the request identity stay out of it, which
// is what lets different complexes share a chain.
func TestCacheKeyComposition(t *testing.T) {
	in, err := inputs.ByName("1YY9")
	if err != nil {
		t.Fatal(err)
	}
	mach := core.MachineFor(in, platform.Server())
	jobAt := func(threads int) *Job {
		return &Job{in: in, machine: mach, threads: threads}
	}
	s := NewWithSuite(sharedSuite, Config{})
	defer s.Stop()
	// keyOf derives a key the way chainFetcher does: the database-set
	// identity is taken from the server's suite when the key is built.
	keyOf := func(s *Server, job *Job, scope string, chain inputs.Chain) string {
		return s.chainKey(job, s.suite.DBs.Fingerprint(), scope, chain)
	}

	chainA, chainB := in.Chains[0], in.Chains[1]
	if keyOf(s, jobAt(4), "full", chainA) != keyOf(s, jobAt(4), "full", chainA) {
		t.Fatal("key not stable")
	}
	if keyOf(s, jobAt(4), "full", chainA) == keyOf(s, jobAt(8), "full", chainA) {
		t.Fatal("key ignores thread count")
	}
	if keyOf(s, jobAt(4), "full", chainA) == keyOf(s, jobAt(4), "full", chainB) {
		t.Fatal("key ignores chain content")
	}
	if keyOf(s, jobAt(4), "full", chainA) == keyOf(s, jobAt(4), "uniref_s", chainA) {
		t.Fatal("key ignores the database profile scope")
	}
	// The same chain content under a different label must share the key —
	// that is the cross-complex reuse the chain tier exists for.
	relabeled := chainA
	relabeled.IDs = []string{"Z"}
	if keyOf(s, jobAt(4), "full", chainA) != keyOf(s, jobAt(4), "full", relabeled) {
		t.Fatal("key depends on the per-complex chain label")
	}
	// Request-scoped keys (the baseline mode) fold the complex in.
	sScoped := NewWithSuite(sharedSuite, Config{RequestScopedKeys: true})
	defer sScoped.Stop()
	if keyOf(s, jobAt(4), "full", chainA) == keyOf(sScoped, jobAt(4), "full", chainA) {
		t.Fatal("RequestScopedKeys did not change the key")
	}

	// A server over a different database set must derive a different key
	// for the same chain.
	suite2, err := core.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	suite2.DBs.Protein = suite2.DBs.Protein[1:] // drop one database
	s2 := NewWithSuite(suite2, Config{})
	defer s2.Stop()
	if keyOf(s, jobAt(4), "full", chainA) == keyOf(s2, jobAt(4), "full", chainA) {
		t.Fatal("key ignores database-set identity")
	}

	// Behavioral check: two servers sharing one cache but holding
	// different database sets must both miss on every chain — the changed
	// set can never be served the other's entries.
	shared := cache.New(0)
	for _, suite := range []*core.Suite{sharedSuite, suite2} {
		srv := NewWithSuite(suite, Config{Threads: 4, MSAWorkers: 1, Cache: shared})
		runTrace(t, srv, []string{"1YY9"})
		srv.Stop()
	}
	st := shared.Stats()
	if st.Misses != 6 || st.Hits != 0 || st.Shared != 0 {
		t.Fatalf("changed DB set was served from cache: %+v", st)
	}
}

// TestSubmitValidation covers the pre-admission rejections.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Submit(Request{Sample: "no-such-sample"}); err == nil {
		t.Fatal("unknown sample admitted")
	}
	s.Stop()
	if _, err := s.Submit(Request{Sample: "1YY9"}); err == nil {
		t.Fatal("submit after Stop admitted")
	}
}

// TestModeledScheduleInvariants checks the virtual-time replay: stage
// precedence holds, cache hits occupy zero CPU lane time, and the
// phase-split schedule beats the serial (stock) deployment of the same
// trace whenever there is anything to overlap.
func TestModeledScheduleInvariants(t *testing.T) {
	s := newTestServer(t, Config{Threads: 4, MSAWorkers: 2, Cache: cache.New(0)})
	statuses := runTrace(t, s, []string{"promo", "1YY9", "1YY9", "promo", "1YY9"})
	for _, st := range statuses {
		if st.State != "done" {
			t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
	}
	sched := s.ModeledSchedule(2, 1)
	if len(sched.Items) != 5 {
		t.Fatalf("scheduled %d items, want 5", len(sched.Items))
	}
	for _, it := range sched.Items {
		if it.MSAEnd < it.MSAStart || it.InfEnd < it.InfStart {
			t.Fatalf("negative stage duration: %+v", it)
		}
		if it.InfStart < it.MSAEnd {
			t.Fatalf("inference before its MSA finished: %+v", it)
		}
		if it.CacheHit && it.MSAEnd != it.MSAStart {
			t.Fatalf("cache hit occupies CPU lane time: %+v", it)
		}
	}
	serial := s.SerialMakespan()
	if sched.Makespan <= 0 || serial <= 0 {
		t.Fatalf("degenerate makespans: split=%v serial=%v", sched.Makespan, serial)
	}
	if sched.Makespan >= serial {
		t.Fatalf("phase-split makespan %.1fs not better than serial %.1fs", sched.Makespan, serial)
	}
	// Same trace, same charges, any pool size: busy seconds conserved.
	again := s.ModeledSchedule(8, 4)
	if again.CPUBusy != sched.CPUBusy || again.GPUBusy != sched.GPUBusy {
		t.Fatalf("busy seconds changed with pool size: %+v vs %+v", again, sched)
	}
}
