package cluster

import (
	"context"
	"errors"
	"sort"
	"sync"

	"afsysbench/internal/core"
	"afsysbench/internal/msa"
	"afsysbench/internal/resilience"
	"afsysbench/internal/serve"
)

// RouterConfig is empty: the router has nothing to tune. The type and
// NewRouter's second parameter exist because the repo benchmark (bench/,
// which only a benchmark-only PR may edit) builds its router as
// NewRouter(replicas, RouterConfig{}).
type RouterConfig struct{}

// Router spreads requests across R serve.Server replicas with
// health-aware load balancing: it prefers replicas whose readiness probe
// (the same verdict GET /v1/readyz serves) is green, breaks ties by
// least outstanding requests, and fails a request over — carrying its
// chain checkpoint — when a replica sheds, fails, or dies mid-request.
type Router struct {
	replicas []*serve.Server
	// maxAttempts bounds submissions per logical request across replicas —
	// each attempt after the first is a failover or a shed reroute.
	maxAttempts int

	mu          sync.Mutex
	outstanding []int
	dispatches  []int64
	killed      []bool
	stats       RouterStats
}

// RouterStats is the router's counter snapshot.
type RouterStats struct {
	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Failovers counts retries on a different replica after a failed
	// attempt (replica death included); ShedReroutes counts retries after
	// an admission shed.
	Failovers    int64 `json:"failovers"`
	ShedReroutes int64 `json:"shed_reroutes"`
	// PerReplica is one row per replica, in replica order.
	PerReplica []ReplicaStats `json:"per_replica"`
}

// ReplicaStats is one replica's row in the router stats.
type ReplicaStats struct {
	Replica    int   `json:"replica"`
	Dispatches int64 `json:"dispatches"`
	Killed     bool  `json:"killed,omitempty"`
}

// RouteResult is the outcome of one routed request.
type RouteResult struct {
	// Replica is the index that produced the final result; Attempts the
	// submissions it took (1 = first try).
	Replica  int
	Attempts int
	Status   serve.JobStatus
	Result   *core.PipelineResult
}

// NewRouter builds a router over started (or to-be-started) replicas.
func NewRouter(replicas []*serve.Server, _ RouterConfig) *Router {
	return &Router{
		replicas:    replicas,
		maxAttempts: max(2, len(replicas)),
		outstanding: make([]int, len(replicas)),
		dispatches:  make([]int64, len(replicas)),
		killed:      make([]bool, len(replicas)),
	}
}

// Replicas returns the routed servers.
func (r *Router) Replicas() []*serve.Server { return r.replicas }

// Kill simulates replica i dying abruptly: in-flight requests on it fail
// at their next context check and the router routes around it.
func (r *Router) Kill(i int) {
	if i < 0 || i >= len(r.replicas) {
		return
	}
	r.mu.Lock()
	r.killed[i] = true
	r.mu.Unlock()
	r.replicas[i].Kill()
}

// Outstanding returns replica i's in-flight request count — the chaos
// harness uses it to time a kill while work is actually on the victim.
func (r *Router) Outstanding(i int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.outstanding) {
		return 0
	}
	return r.outstanding[i]
}

// Stats returns a counter snapshot.
func (r *Router) Stats() RouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.PerReplica = make([]ReplicaStats, len(r.replicas))
	for i := range r.replicas {
		st.PerReplica[i] = ReplicaStats{Replica: i, Dispatches: r.dispatches[i], Killed: r.killed[i]}
	}
	return st
}

// pick chooses the next replica: not killed and not excluded, preferring
// ready ones (readiness probe green), then least outstanding, then lowest
// index. Returns -1 when no candidate remains.
func (r *Router) pick(exclude map[int]bool) int {
	type cand struct {
		i           int
		ready       bool
		outstanding int
	}
	var cands []cand
	for i, srv := range r.replicas {
		r.mu.Lock()
		dead := r.killed[i]
		out := r.outstanding[i]
		r.mu.Unlock()
		if dead || exclude[i] {
			continue
		}
		cands = append(cands, cand{i: i, ready: srv.Ready().Ready, outstanding: out})
	}
	if len(cands) == 0 {
		return -1
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].ready != cands[b].ready {
			return cands[a].ready
		}
		if cands[a].outstanding != cands[b].outstanding {
			return cands[a].outstanding < cands[b].outstanding
		}
		return cands[a].i < cands[b].i
	})
	return cands[0].i
}

// Do routes one request to completion: submit to the best replica, wait
// for the job's Done channel (or ctx), and on a shed, failure, or replica
// death retry on another replica with the same chain checkpoint — so
// chains the failed attempt completed are replayed, not recomputed.
func (r *Router) Do(ctx context.Context, req serve.Request) (RouteResult, error) {
	if req.Checkpoint == nil {
		// One checkpoint per logical request, shared by every attempt across
		// replicas. Replicas share one suite, so the checkpoint scopes
		// (database-profile signatures) line up.
		req.Checkpoint = msa.NewCheckpoint()
	}
	r.mu.Lock()
	r.stats.Requests++
	r.mu.Unlock()

	var lastErr error
	exclude := make(map[int]bool)
	out := RouteResult{}
	for attempt := 1; attempt <= r.maxAttempts; attempt++ {
		out.Attempts = attempt
		replica := r.pick(exclude)
		if replica < 0 {
			// Every remaining replica is dead or already failed this
			// request; clear the exclusions and allow re-tries on shed
			// replicas (a shed is transient, a death is not).
			exclude = make(map[int]bool)
			if replica = r.pick(exclude); replica < 0 {
				if lastErr == nil {
					lastErr = errors.New("cluster: all replicas down")
				}
				break
			}
		}
		srv := r.replicas[replica]
		id, err := srv.Submit(req)
		if err != nil {
			lastErr = err
			if resilience.IsOverloaded(err) {
				// A QoS shed (rate-limited / brownout) is a verdict on the
				// tenant, not the replica: replicas share one admission
				// controller, so every reroute would re-offer an already
				// rejected request and burn attempts laundering the quota.
				// Only a queue-full shed is worth trying elsewhere.
				if reason := resilience.ShedReasonOf(err); reason != resilience.ShedQueueFull {
					r.finish(false)
					return out, err
				}
				r.mu.Lock()
				r.stats.ShedReroutes++
				r.mu.Unlock()
			}
			exclude[replica] = true
			continue
		}
		r.noteSubmit(replica, 1)
		out.Replica = replica
		select {
		case <-srv.Done(id):
			out.Status, _ = srv.Status(id)
		case <-ctx.Done():
			out.Status = serve.JobStatus{ID: id, State: serve.StateFailed.String(), Error: ctx.Err().Error()}
		}
		r.noteSubmit(replica, -1)
		if out.Status.State == serve.StateDone.String() {
			if res, ok := srv.Result(id); ok {
				out.Result = res
			}
			r.finish(true)
			return out, nil
		}
		lastErr = errors.New(out.Status.Error)
		exclude[replica] = true
		if attempt < r.maxAttempts {
			r.mu.Lock()
			r.stats.Failovers++
			r.mu.Unlock()
		}
	}
	r.finish(false)
	return out, lastErr
}

func (r *Router) noteSubmit(replica, delta int) {
	r.mu.Lock()
	r.outstanding[replica] += delta
	if delta > 0 {
		r.dispatches[replica]++
	}
	r.mu.Unlock()
}

func (r *Router) finish(done bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if done {
		r.stats.Completed++
	} else {
		r.stats.Failed++
	}
}
