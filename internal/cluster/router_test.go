package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"afsysbench/internal/cache"
	"afsysbench/internal/core"
	"afsysbench/internal/resilience"
	"afsysbench/internal/serve"
)

var (
	suiteOnce   sync.Once
	suiteShared *core.Suite
	suiteErr    error
)

func testSuite(t *testing.T) *core.Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suiteShared, suiteErr = core.NewSuite()
	})
	if suiteErr != nil {
		t.Fatalf("NewSuite: %v", suiteErr)
	}
	return suiteShared
}

func mustFaults(t *testing.T, spec string) resilience.Faults {
	t.Helper()
	f, err := resilience.ParseFaults(spec)
	if err != nil {
		t.Fatalf("ParseFaults(%q): %v", spec, err)
	}
	return f
}

// TestRouterFailoverCheckpoint: a replica dies mid-request (after
// finishing the MSA search, before the GPU hand-off — the worst moment,
// all the work done and none of it delivered) and the router's retry lands
// on a healthy replica that replays every chain the dead one searched from
// the chain cache the two share, instead of recomputing them. Both
// replicas carry an open mgnify_s breaker so the reduced database profile
// — and therefore the cache scope — matches across the failover, and the
// partial_msa annotation must survive onto the final status.
func TestRouterFailoverCheckpoint(t *testing.T) {
	suite := testSuite(t)
	base := serve.Config{
		Threads:          2,
		MSAWorkers:       2,
		GPUWorkers:       1,
		QueueDepth:       8,
		Cache:            cache.New(0),
		Faults:           mustFaults(t, "permanent:mgnify_s"),
		BreakerThreshold: 1,
	}
	victimCfg := base
	victimCfg.PanicHook = func(point string, ordinal int) {
		if point == "handoff" {
			panic("replica dying at MSA→GPU hand-off")
		}
	}
	victim := serve.NewWithSuite(suite, victimCfg)
	healthy := serve.NewWithSuite(suite, base)
	victim.Start()
	healthy.Start()
	defer victim.Stop()
	defer healthy.Stop()

	// Trip the mgnify_s breaker on both replicas: the permanent storage
	// fault makes the degradation ladder drop the database, which the
	// breaker (threshold 1) converts into an up-front skip for every
	// later request. The warm-up samples share no chain with each other
	// (a cache hit feeds no breaker) or with the routed one, so the routed
	// request's chains are searched on the victim.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i, srv := range []*serve.Server{victim, healthy} {
		if _, err := srv.Submit(serve.Request{Sample: []string{"1YY9", "7RCE"}[i]}); err != nil {
			t.Fatalf("warmup submit: %v", err)
		}
		if err := srv.WaitIdle(ctx); err != nil {
			t.Fatalf("warmup WaitIdle: %v", err)
		}
		open := srv.Ready().OpenBreakers
		found := false
		for _, name := range open {
			if name == "mgnify_s" {
				found = true
			}
		}
		if !found {
			t.Fatalf("mgnify_s breaker not open after warmup: open=%v", open)
		}
	}

	// Both replicas are unready (open breakers), so the router falls back
	// to least-outstanding / lowest-index: the victim, replica 0.
	r := NewRouter([]*serve.Server{victim, healthy}, RouterConfig{})
	out, err := r.Do(ctx, serve.Request{Sample: "2PV7"})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if out.Replica != 1 {
		t.Errorf("final replica = %d, want 1 (the healthy one)", out.Replica)
	}
	if out.Attempts < 2 {
		t.Errorf("attempts = %d, want ≥2 (a failover happened)", out.Attempts)
	}
	if out.Status.State != "done" {
		t.Fatalf("final state = %s (%s)", out.Status.State, out.Status.Error)
	}
	if !out.Status.PartialMSA {
		t.Error("partial_msa annotation lost across the failover")
	}
	if out.Status.ChainsMem == 0 || out.Status.ChainsFresh != 0 {
		t.Errorf("chains_mem = %d, chains_fresh = %d, want every chain from the shared cache: the victim searched them all before the death",
			out.Status.ChainsMem, out.Status.ChainsFresh)
	}
	st := r.Stats()
	if st.Failovers == 0 {
		t.Errorf("router stats count no failovers: %+v", st)
	}
	if st.Completed != 1 {
		t.Errorf("completed = %d, want 1", st.Completed)
	}
}

// TestRouterKilledReplica: a killed replica rejects submissions, reports
// unready, and the router routes around it without losing requests.
func TestRouterKilledReplica(t *testing.T) {
	suite := testSuite(t)
	cfg := serve.Config{Threads: 2, MSAWorkers: 2, GPUWorkers: 1, QueueDepth: 8}
	a := serve.NewWithSuite(suite, cfg)
	b := serve.NewWithSuite(suite, cfg)
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

	r := NewRouter([]*serve.Server{a, b}, RouterConfig{})
	r.Kill(0)
	if a.Metrics().Get("server_killed") != 1 {
		t.Fatal("replica 0 not killed")
	}
	if a.Ready().Ready {
		t.Error("killed replica reports ready")
	}
	if _, err := a.Submit(serve.Request{Sample: "1YY9"}); err == nil {
		t.Error("killed replica accepted a submission")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out, err := r.Do(ctx, serve.Request{Sample: "1YY9"})
	if err != nil {
		t.Fatalf("Do with a killed replica: %v", err)
	}
	if out.Replica != 1 {
		t.Errorf("routed to replica %d, want 1", out.Replica)
	}
	if out.Status.State != "done" {
		t.Errorf("state = %s (%s)", out.Status.State, out.Status.Error)
	}
	st := r.Stats()
	if !st.PerReplica[0].Killed || st.PerReplica[0].Dispatches != 0 {
		t.Errorf("killed replica stats: %+v", st.PerReplica[0])
	}
}

// TestRouterKillMidFlight kills a replica while its jobs are in flight:
// every request must still complete (on the survivor) with the work
// moved, not lost.
func TestRouterKillMidFlight(t *testing.T) {
	suite := testSuite(t)
	cfg := serve.Config{Threads: 2, MSAWorkers: 1, GPUWorkers: 1, QueueDepth: 16}
	a := serve.NewWithSuite(suite, cfg)
	b := serve.NewWithSuite(suite, cfg)
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

	r := NewRouter([]*serve.Server{a, b}, RouterConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	states := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := r.Do(ctx, serve.Request{Sample: "2PV7"})
			errs[i], states[i] = err, out.Status.State
		}(i)
	}
	// Let the fan-out land, then kill replica 0 under load.
	time.Sleep(5 * time.Millisecond)
	r.Kill(0)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Errorf("request %d failed: %v", i, errs[i])
		} else if states[i] != "done" {
			t.Errorf("request %d state = %s", i, states[i])
		}
	}
	if g := b.MetricsSnapshot().Gauges; g["msa_workers_live"] != int64(cfg.MSAWorkers) || g["gpu_workers_live"] != int64(cfg.GPUWorkers) {
		t.Errorf("survivor pool degraded: live-worker gauges %v", g)
	}
	// Every wait — finished, failed over, or stranded on the dead replica —
	// handed its outstanding slot back.
	for i := range r.Replicas() {
		if out := r.Outstanding(i); out != 0 {
			t.Errorf("replica %d still has %d outstanding requests after the storm", i, out)
		}
	}
	if st := r.Stats(); st.Requests != n || st.Completed != n || st.Failed != 0 {
		t.Errorf("router stats after the storm: %+v", st)
	}
}
