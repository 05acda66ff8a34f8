// Package serve is the throughput-oriented serving subsystem: it turns the
// single-run pipeline of internal/core into a multi-request scheduler for
// the ROADMAP's "heavy traffic" north star.
//
// The paper's central observation is that AF3 is two workloads glued
// together — a CPU/IO-bound MSA search and a GPU-bound inference — and
// that stock AF3 serializes them per request inside one container, leaving
// each resource idle half the time. Following ParaFold (PAPERS.md), the
// scheduler here decomposes every request into an MSA stage and an
// inference stage and runs them on separate bounded worker pools: a CPU
// pool sized to cores (internal/parallel) and a "GPU" pool sized to the
// machine's modeled accelerator count (internal/simgpu). Stages pipeline
// naturally — the MSA search for request N+1 overlaps inference for
// request N — and a content-addressed cache (internal/cache) short-circuits
// the MSA stage entirely for repeated queries, the AF_Cache observation
// that screening traffic is massively redundant.
//
// Admission control is a bounded queue with deterministic load shedding
// (resilience.ErrOverloaded): a request is rejected at the door, never
// half-executed. There is one dispatch queue, a qos.WFQ: a plain server
// pushes every job under one key at cost 1 — a FIFO bounded by
// Config.QueueDepth — and Config.QoS adds the tenant-aware controller in
// front of it and per-tenant weighted sub-queues inside it (qos.go).
// Per-request deadlines thread through the same context machinery the
// resilience layer added to the pipeline, so an expired request surfaces
// as resilience.ErrStageTimeout and sheds cleanly at the next stage
// boundary.
//
// A job turns terminal in exactly one place (record, joblog.go), which closes
// the channel Server.Done hands out: in-process clients — the scenario
// library, the cluster router — wait on it instead of polling Status; only
// the HTTP API, being remote, is polled.
//
// Determinism contract: per-request results are computed with a canonical
// run index (no repeat-run jitter) and the deterministic kernels below, so
// a given request trace produces bitwise-identical per-request results at
// any pool size, with or without the cache. Admission decisions depend
// only on queue occupancy, so a trace submitted synchronously sheds
// identically for a fixed queue bound.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"afsysbench/internal/batch"
	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
	"afsysbench/internal/msa"
	"afsysbench/internal/parallel"
	"afsysbench/internal/platform"
	"afsysbench/internal/qos"
	"afsysbench/internal/resilience"
	"afsysbench/internal/rng"
	"afsysbench/internal/simgpu"
)

// State is a job's position in the serving pipeline.
type State int

const (
	// StateQueued: admitted, waiting for an MSA worker.
	StateQueued State = iota
	// StateMSA: the MSA stage is running (or being fetched from cache).
	StateMSA
	// StateInference: the inference stage is running or queued on the GPU
	// pool.
	StateInference
	// StateDone: finished successfully; the result is available.
	StateDone
	// StateFailed: terminated by error (deadline, OOM gate, fault).
	StateFailed
)

var stateNames = [...]string{"queued", "msa", "inference", "done", "failed"}

// String implements fmt.Stringer.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// Request is one prediction submission.
type Request struct {
	// Sample is the Table II sample name to predict.
	Sample string
	// Threads overrides the server's per-request worker count (0 = server
	// default).
	Threads int
	// Timeout is the per-request wall-clock deadline covering queue wait
	// and both stages (0 = the server's DefaultTimeout; negative = none
	// even if the server has a default).
	Timeout time.Duration
	// Checkpoint, when non-nil, is a caller-owned chain checkpoint the job
	// records completed MSA chains into (and replays from). The cluster
	// router passes one per logical request so a retry after a replica
	// death resumes on a healthy replica with every chain the dead one
	// finished — cross-replica checkpointed failover. nil keeps the
	// server-internal behavior (a private checkpoint when MSAAttempts > 1).
	Checkpoint *msa.Checkpoint
	// Tenant is the submitting tenant's ID (QoS mode; "" maps to
	// "default"). Ignored without Config.QoS.
	Tenant string
	// Arrival is the request's modeled arrival time in seconds (QoS mode):
	// the virtual clock the token buckets refill on and the brownout
	// backlog drains on. Negative stamps the wall clock (seconds since the
	// server was built) — the live-traffic path. Ignored without
	// Config.QoS.
	Arrival float64
}

// Config tunes a Server. Zero values mean: paper Server platform, AF3's
// 8-thread default per request, an MSA pool sized to cores, a GPU pool
// sized to the machine's modeled accelerator count, a 64-deep admission
// queue, no cache, no deadline, persistent (warm) model state.
type Config struct {
	Machine platform.Machine
	// Threads is the default per-request worker count for the MSA scan and
	// compute kernels.
	Threads int
	// MSAWorkers bounds concurrent MSA stages (the CPU pool).
	MSAWorkers int
	// GPUWorkers bounds concurrent inference stages (the accelerator pool).
	GPUWorkers int
	// QueueDepth bounds the admission queue; a submit that finds it full
	// is shed with resilience.ErrOverloaded.
	QueueDepth int
	// Cache is the content-addressed MSA cache, keyed per chain: two
	// requests sharing a chain sequence share its search, even when the
	// complexes differ. nil disables caching (every request pays its MSA
	// search).
	Cache *cache.Cache
	// DiskCache is the crash-safe persistent tier under Cache: chain
	// entries evicted from memory spill to it, and memory misses read
	// through it before recomputing. A corrupt or unreadable disk entry
	// is a miss, never an error, and a disk that stays dark trips the
	// store's breaker into memory-only mode. nil disables the tier;
	// it needs Cache to be useful (the hook only runs on memory misses).
	DiskCache *cachedisk.Store
	// RequestScopedKeys folds the whole request fingerprint into every
	// chain cache key, disabling cross-request chain sharing — chains are
	// only reused by requests for the identical complex. This is the
	// request-keyed baseline the two-tier benchmark compares against.
	RequestScopedKeys bool
	// DefaultTimeout is the per-request wall deadline when the request
	// does not set one (0 = none).
	DefaultTimeout time.Duration
	// ColdModel disables the §VI persistent-model optimization: every
	// request pays GPU init + XLA compile (stock one-container-per-request
	// deployment). The default keeps the model resident.
	ColdModel bool
	// Metrics receives operational counters; nil creates a private
	// registry (exposed via MetricsSnapshot and the /v1/metrics endpoint).
	Metrics *metering.Registry
	// Faults is the fault specification applied to every request (chaos
	// and robustness testing). Each job gets its own injector, seeded
	// deterministically from (suite seed, job ordinal), that persists
	// across MSA stage retries — so a transient budget consumed by attempt
	// one stays consumed for attempt two.
	Faults resilience.Faults
	// MSAAttempts bounds MSA stage attempts per request (default 1 — no
	// retry). With more than one attempt each job carries a chain
	// checkpoint, so a retry re-runs only the chains that had not finished
	// when the previous attempt faulted.
	MSAAttempts int
	// BreakerThreshold is the consecutive-failure count that opens a
	// database's circuit breaker (default 5); BreakerCooldown is how long
	// an open breaker rejects before allowing a half-open probe (default
	// 10s). An open breaker makes requests skip that database up front —
	// the degradation ladder runs immediately instead of re-proving a dark
	// shard on every request — and the result is annotated partial_msa.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// PanicHook, when set, is called at the worker guard points — "msa"
	// (stage start), "handoff" (after MSA success, before the GPU queue
	// send) and "inference" (stage start) — with the job's ordinal. Chaos
	// mode panics inside it to prove worker panic isolation: the job fails
	// with error class "panic" and the worker survives.
	PanicHook func(point string, ordinal int)
	// Scatter is the cluster layer's scatter-gather scan hook (see
	// msa.Options.Scatter): every database scan of every MSA stage is
	// dispatched across simulated shard nodes instead of the in-process
	// thread fan-out. The hook's bitwise-determinism contract keeps the
	// cache keys and the per-request results independent of shard count.
	Scatter msa.ScatterFunc
	// Batch enables cross-request GPU batching with a shape-bucketed
	// compiled-graph cache (see batch.go). Zero value: every inference
	// dispatches alone.
	Batch BatchConfig
	// QoS enables multi-tenant admission and weighted-fair MSA dispatch
	// (see qos.go): requests carry a tenant ID and modeled arrival, the
	// controller decides admit/shed/degrade on its virtual clock, and the
	// MSA queue drains per-tenant sub-queues by deficit round-robin over
	// chain-token costs. The controller is deliberately shareable across
	// replicas (one quota cluster-wide). nil means no controller: the same
	// queue with one shared sub-queue, shedding only when QueueDepth jobs
	// wait.
	QoS *qos.Controller
}

// brownoutMSABudget is the modeled MSA budget (seconds) imposed on
// requests degraded to qos.LevelDropDB, engaging the database-drop
// degradation ladder for over-quota tenants under brownout: under the
// full-profile cost of the large Table II samples, above the small ones.
const brownoutMSABudget = 300

func (c Config) withDefaults() Config {
	if c.Machine.Name == "" {
		c.Machine = platform.Server()
	}
	if c.Threads <= 0 {
		c.Threads = 8
	}
	if c.MSAWorkers <= 0 {
		c.MSAWorkers = parallel.DefaultWorkers()
	}
	if c.GPUWorkers <= 0 {
		c.GPUWorkers = simgpu.Devices(c.Machine)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Metrics == nil {
		c.Metrics = metering.NewRegistry()
	}
	if c.MSAAttempts <= 0 {
		c.MSAAttempts = 1
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	return c
}

// job is one admitted request: its header, written once in Submit, and
// its log (joblog.go), which record appends to under the server mutex.
// Every view of a job is a fold over the log.
type job struct {
	id        string
	ordinal   int
	in        *inputs.Input
	machine   platform.Machine
	threads   int
	deadline  time.Time
	submitted time.Time
	// done is closed when the job turns terminal (record); Done hands it
	// to waiters.
	done chan struct{}
	// inj is the job's fault injector (nil without configured faults). It
	// lives on the job, not the stage attempt, so transient budgets are
	// consumed exactly once across retries.
	inj *resilience.Injector
	// checkpoint preserves completed MSA chain deltas across stage
	// retries (nil when MSAAttempts is 1).
	checkpoint *msa.Checkpoint
	// tenant/arrival/qosLevel are the QoS coordinates (QoS mode only): the
	// owning tenant, the modeled arrival the admission decision ran at and
	// the brownout rung the request runs under.
	tenant   string
	arrival  float64
	qosLevel qos.Level
	// log is everything that happened to the job since Submit; its first
	// events live in logBuf, so a request's log costs no allocation of its
	// own.
	log    []event
	logBuf [8]event
}

// JobStatus is a point-in-time snapshot of one job, also the HTTP
// status-endpoint payload.
type JobStatus struct {
	ID     string `json:"id"`
	Sample string `json:"sample"`
	State  string `json:"state"`
	// CacheHit marks a fully cached request: every MSA chain came from a
	// cache tier and no database was searched.
	CacheHit bool `json:"cache_hit"`
	// ChainsMem/ChainsDisk/ChainsFresh split the request's MSA chains by
	// origin: memory-tier hit, disk-tier hit, fresh search.
	ChainsMem   int `json:"chains_mem,omitempty"`
	ChainsDisk  int `json:"chains_disk,omitempty"`
	ChainsFresh int `json:"chains_fresh,omitempty"`
	// ChainsRestored counts MSA chains replayed from the job's checkpoint —
	// work a previous attempt (possibly on a dead replica) completed that
	// this one did not repeat.
	ChainsRestored int `json:"chains_restored,omitempty"`
	// MSASeconds is the modeled MSA time charged to this request (the
	// fresh-work share of the phase time; 0 on a full cache hit);
	// InferenceSeconds the modeled inference time.
	MSASeconds       float64 `json:"msa_seconds"`
	InferenceSeconds float64 `json:"inference_seconds"`
	Degraded         bool    `json:"degraded,omitempty"`
	// ChargedInferenceSeconds is the inference time attributed to this
	// request: the canonical breakdown total unbatched, the amortized
	// share of the batch total when the request rode a batched dispatch.
	ChargedInferenceSeconds float64 `json:"charged_inference_seconds,omitempty"`
	// BatchID/BatchSize/BucketTokens identify the batched dispatch that
	// carried this request and the shape bucket it was padded to.
	BatchID      string `json:"batch_id,omitempty"`
	BatchSize    int    `json:"batch_size,omitempty"`
	BucketTokens int    `json:"bucket_tokens,omitempty"`
	// Tenant is the owning tenant (QoS mode); QoSLevel the brownout rung
	// the request ran under ("" when none applied).
	Tenant   string `json:"tenant,omitempty"`
	QoSLevel string `json:"qos_level,omitempty"`
	// PartialMSA marks a result computed with databases skipped by an
	// open circuit breaker (a strict subset of Degraded).
	PartialMSA bool    `json:"partial_msa,omitempty"`
	Error      string  `json:"error,omitempty"`
	ErrorClass string  `json:"error_class,omitempty"`
	WallMs     float64 `json:"wall_ms,omitempty"`
}

// Server is the phase-split scheduler. Build with New (or NewWithSuite),
// Submit requests at any time after construction, call Start to launch the
// worker pools and Stop to drain and release them.
type Server struct {
	suite *core.Suite
	cfg   Config

	// keyDBs and keySearch are the chain-key parts for the database-set
	// identity (a hash over every record) and the scan-engine options, both
	// taken once at construction: the suite's DBs are read-only from then on
	// (see NewWithSuite).
	keyDBs    string
	keySearch string

	mu      sync.Mutex
	idle    sync.Cond // signaled when pending reaches 0
	jobs    map[string]*job
	order   []*job // admitted jobs in submit order
	pending int    // admitted but not yet terminal
	started bool
	stopped bool
	killed  bool

	// killCtx is the server's life context: Kill cancels it, which fails
	// every in-flight and queued job at its next context check — the
	// cluster harness's simulation of abrupt replica death.
	killCtx    context.Context
	killCancel context.CancelFunc

	// wfq is the MSA dispatch queue of every server: FIFO sub-queues
	// drained by deficit round-robin. With Config.QoS there is one
	// sub-queue per tenant, weighted, at chain-token cost; without it every
	// job shares one sub-queue at cost 1, which pops in submit order.
	// epoch anchors wall-clock arrival stamps for live HTTP traffic.
	wfq   *qos.WFQ[*job]
	epoch time.Time
	infQ  chan *job
	wgA   sync.WaitGroup // MSA workers
	wgB   sync.WaitGroup // GPU workers

	// Batching tier (nil/zero unless cfg.Batch.Enabled; see batch.go).
	// policy pads token counts into shape buckets; the dispatcher
	// goroutine (wgDisp) turns infQ into sealed batches on batchQ;
	// batchKick wakes it for quiescence re-checks; compileCache is the
	// compiled-graph cache; meter and batchAgg (guarded by mu) hold the
	// padding/compile and overhead accounting; preBatch (guarded by mu)
	// counts admitted jobs the dispatcher has not yet received.
	policy       batch.Policy
	batchQ       chan *inferenceBatch
	batchKick    chan struct{}
	wgDisp       sync.WaitGroup
	compileCache *cache.Cache
	meter        *batch.Meter
	preBatch     int
	batchAgg     batchAggregate

	// msaLive/gpuLive count live worker goroutines (PoolHealth); guarded
	// by mu.
	msaLive int
	gpuLive int

	// breakers is one circuit breaker per database, built at construction
	// and read-only afterwards (each breaker has its own lock).
	breakers map[string]*resilience.Breaker
}

// New builds a server with its own suite instance (synthetic databases,
// AF3-scale model).
func New(cfg Config) (*Server, error) {
	suite, err := core.NewSuite()
	if err != nil {
		return nil, err
	}
	return NewWithSuite(suite, cfg), nil
}

// NewWithSuite builds a server over an existing suite — tests and
// in-process load generators share one suite to avoid rebuilding the
// synthetic databases per server. The suite's DBs must not change once a
// server is built over it: the server fingerprints the database set here,
// once, and every chain key it derives names that set.
func NewWithSuite(suite *core.Suite, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		suite:     suite,
		cfg:       cfg,
		keyDBs:    suite.DBs.Fingerprint(),
		keySearch: fmt.Sprintf("search=%+v", suite.Search),
		jobs:      make(map[string]*job),
		infQ:      make(chan *job, cfg.QueueDepth),
		epoch:     time.Now(),
	}
	s.killCtx, s.killCancel = context.WithCancel(context.Background())
	s.idle.L = &s.mu
	var weightOf func(tenant string) float64
	if cfg.QoS != nil {
		weightOf = cfg.QoS.Weight
	}
	s.wfq = qos.NewWFQ[*job](0, weightOf)
	s.initBreakers()
	s.initBatching()
	if cfg.Cache != nil && cfg.DiskCache != nil {
		// Spill-on-eviction: a chain pushed out of the memory LRU is
		// written through to the persistent tier instead of being lost.
		cfg.Cache.SetOnEvict(s.spillChain)
	}
	return s
}

// Config returns the server's effective (default-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// Metrics returns the server's counter registry.
func (s *Server) Metrics() *metering.Registry { return s.cfg.Metrics }

// Start launches the MSA and GPU worker pools. Requests submitted before
// Start wait in the admission queue (which is what makes shed decisions a
// pure function of the trace and the queue bound under test).
func (s *Server) Start() {
	s.mu.Lock()
	if s.started || s.stopped {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	for i := 0; i < s.cfg.MSAWorkers; i++ {
		s.wgA.Add(1)
		go s.msaWorker()
	}
	if s.cfg.Batch.Enabled {
		// The single dispatcher owns batch composition (the determinism
		// argument in batch.go); the GPU pool consumes sealed batches.
		s.wgDisp.Add(1)
		go s.batchDispatcher()
		for i := 0; i < s.cfg.GPUWorkers; i++ {
			s.wgB.Add(1)
			go s.batchGPUWorker()
		}
		return
	}
	for i := 0; i < s.cfg.GPUWorkers; i++ {
		s.wgB.Add(1)
		go s.gpuWorker()
	}
}

// Stop drains the pipeline — queued jobs still execute — and releases
// every worker goroutine. Submits after Stop are rejected. Safe to call
// once; a never-started server just marks itself stopped.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	started := s.started
	s.mu.Unlock()
	// Closing the dispatch queue drains the backlog and releases the pool.
	s.wfq.Close()
	if started {
		s.wgA.Wait()
	}
	close(s.infQ)
	if started {
		if s.cfg.Batch.Enabled {
			// The dispatcher seals its open batch and closes batchQ on
			// infQ close; the GPU pool drains the sealed tail.
			s.wgDisp.Wait()
		}
		s.wgB.Wait()
	}
}

// Submit admits one request or sheds it. The decision is synchronous and
// deterministic: if the admission queue has a free slot the job is queued
// and its ID returned; otherwise resilience.ErrOverloaded comes back and
// the server state is untouched. Unknown samples are rejected before
// admission.
func (s *Server) Submit(req Request) (string, error) {
	in, err := inputs.ByName(req.Sample)
	if err != nil {
		return "", err
	}
	threads := req.Threads
	if threads <= 0 {
		threads = s.cfg.Threads
	}
	now := time.Now()
	var deadline time.Time
	timeout := req.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		deadline = now.Add(timeout)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return "", errors.New("serve: server stopped")
	}
	if s.killed {
		return "", errors.New("serve: server killed")
	}
	// Without QoS every job shares one sub-queue at cost 1 — pops come out
	// in global submission order, true FIFO — and the only shed is a full
	// queue.
	key, cost := fifoKey, 1.0
	var tenant string
	var arrival float64
	var level qos.Level
	if s.qosEnabled() {
		// Tenant-aware admission: the controller decides on its modeled
		// clock — rate limit, modeled queue bound, brownout ladder — and an
		// admitted job enters the weighted-fair queue under its tenant at
		// its chain-token cost.
		tenant = req.Tenant
		if tenant == "" {
			tenant = "default"
		}
		arrival = req.Arrival
		if arrival < 0 {
			arrival = time.Since(s.epoch).Seconds()
		}
		cost = float64(in.TotalResidues())
		d := s.cfg.QoS.Admit(tenant, arrival, cost)
		if !d.Admit {
			s.cfg.Metrics.Add("requests_shed", 1)
			s.cfg.Metrics.Add(qosReasonCounter(d.Reason.String()), 1)
			return "", resilience.ErrOverloaded{
				Queued:   int(d.Backlog),
				Capacity: int(d.Capacity),
				Reason:   d.Reason,
				Tenant:   tenant,
			}
		}
		level = d.Level
		if level > qos.LevelNone {
			s.cfg.Metrics.Add("requests_brownout", 1)
		}
		if !s.cfg.QoS.Config().FIFO {
			// The unprotected comparator keeps the shared sub-queue, not
			// per-tenant round-robin.
			key = tenant
		}
	} else if queued := s.wfq.Len(); queued >= s.cfg.QueueDepth {
		s.cfg.Metrics.Add("requests_shed", 1)
		s.cfg.Metrics.Add(qosReasonCounter(resilience.ShedQueueFull.String()), 1)
		return "", resilience.ErrOverloaded{Queued: queued, Capacity: s.cfg.QueueDepth}
	}
	j := &job{
		ordinal:   len(s.order),
		in:        in,
		machine:   core.MachineFor(in, s.cfg.Machine),
		threads:   threads,
		deadline:  deadline,
		submitted: now,
		done:      make(chan struct{}),
		tenant:    tenant,
		arrival:   arrival,
		qosLevel:  level,
	}
	j.id = fmt.Sprintf("j%04d-%s", j.ordinal, in.Name)
	j.log = j.logBuf[:0]
	if len(s.cfg.Faults) > 0 {
		// One injector per job, seeded by ordinal: fault decisions are a
		// pure function of the trace, and budgets persist across stage
		// retries.
		j.inj = resilience.NewInjector(s.cfg.Faults, rng.New(s.suite.Seed).Split(uint64(j.ordinal)))
	}
	if req.Checkpoint != nil {
		j.checkpoint = req.Checkpoint
	} else if s.cfg.MSAAttempts > 1 {
		j.checkpoint = msa.NewCheckpoint()
	}
	s.wfq.Push(key, cost, j)
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.pending++
	if s.cfg.Batch.Enabled {
		s.preBatch++
	}
	s.cfg.Metrics.Add("requests_admitted", 1)
	return j.id, nil
}

// Kill simulates abrupt replica death for the cluster chaos harness: the
// server stops admitting (submits fail immediately), every in-flight and
// queued job is failed at its next context check, and Ready reports false.
// Unlike Stop it does not drain — queued jobs die where they stand. The
// worker goroutines survive (they just drain failed jobs), so a killed
// server still Stops cleanly. Idempotent.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	s.killed = true
	s.mu.Unlock()
	s.killCancel()
	s.cfg.Metrics.Add("server_killed", 1)
}

// Killed reports whether Kill has been called.
func (s *Server) Killed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed
}

// WaitIdle blocks until every admitted job has reached a terminal state
// (or ctx is done). The server must be started, or undrained jobs wait
// forever.
func (s *Server) WaitIdle(ctx context.Context) error {
	done := make(chan struct{})
	cancelled := false // guarded by s.mu
	go func() {
		s.mu.Lock()
		for s.pending > 0 && !cancelled {
			s.idle.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Release the waiter goroutine — pending jobs keep running — and
		// see it out, so a timed-out call leaves nothing behind.
		s.mu.Lock()
		cancelled = true
		s.idle.Broadcast()
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Done returns a channel that is closed the moment job id turns terminal
// (done or failed) — after which Status and Result are final — or nil for
// an unknown id. In-process clients wait on it instead of polling Status.
func (s *Server) Done(id string) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	return j.done
}

// Status returns a snapshot of one job.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return status(j), true
}

// Statuses returns snapshots of all admitted jobs in submit order.
func (s *Server) Statuses() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, len(s.order))
	for i, j := range s.order {
		out[i] = status(j)
	}
	return out
}

// Result returns the completed pipeline result for a job (nil, false until
// StateDone).
func (s *Server) Result(id string) (*core.PipelineResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || result(j) == nil {
		return nil, false
	}
	return result(j), true
}

// pipelineOpts builds the per-request options. RunIndex is pinned to 0 —
// the canonical, jitter-free timing draw — so results are a pure function
// of (sample, threads, machine, database set) and therefore identical
// across pool sizes and safe to share through the cache. FreshMSA keeps
// the suite's experiment memo out of the serving path: internal/cache is
// the only reuse layer.
func (s *Server) pipelineOpts(j *job) core.PipelineOptions {
	return core.PipelineOptions{
		Threads:   j.threads,
		RunIndex:  0,
		WarmStart: !s.cfg.ColdModel,
		FreshMSA:  true,
		Injector:  j.inj,
		Scatter:   s.cfg.Scatter,
	}
}

// fifoKey is the one WFQ sub-queue every job shares when no per-tenant
// fairness applies (no Config.QoS, or the controller's FIFO comparator).
// The NUL keeps it clear of any tenant ID.
const fifoKey = "\x00fifo"

// chainCodec identifies the msa.CachedChain payload format (msa's chain
// codec) in the persistent tier's entry headers. Bump it when the format
// changes: an entry with another codec — 1 was gob, 2 framed events per
// worker, 3 held the events in record order, 4 held the reader lane's
// per-record sums — is dropped at read time and recomputed once.
const chainCodec uint16 = 5

// chainKey is the content address of one chain's MSA search: everything
// that determines the chain delta goes in — the chain content
// (msa.ChainFingerprint: type and residues, independent of the per-complex
// label), the database-set identity, the database profile the stage plans
// against (scope covers both breaker skips and the degradation ladder, so
// a delta searched under a reduced profile is never served for the full
// one), and the scan-engine options. The machine, the suite seed and the
// thread count are deliberately absent: a chain delta is
// platform-independent (the machine models replay it later), the search
// itself is deterministic, and a thread count only decides which worker
// each record's work is credited to when the delta is merged, so one chain
// serves every count. With RequestScopedKeys the whole request fingerprint
// is folded in, confining reuse to identical requests.
func (s *Server) chainKey(j *job, scope string, chain inputs.Chain) string {
	parts := []string{
		"msa-chain/v7",
		msa.ChainFingerprint(chain),
		s.keyDBs,
		"scope=" + scope,
		s.keySearch,
	}
	if s.cfg.RequestScopedKeys {
		parts = append(parts, "req="+inputFingerprint(j.in))
	}
	return cache.Key(parts...)
}

// chainFetcher builds the job's msa.ChainFetch hook: memory tier first
// (with singleflight across concurrent identical chains), then the disk
// tier, then the real search. Tier accounting lands on the job and the
// metrics registry. Keys name the database set by the identity the server
// took at construction.
func (s *Server) chainFetcher(j *job) msa.ChainFetch {
	return func(scope string, chain inputs.Chain, compute func() (*msa.CachedChain, error)) (*msa.CachedChain, bool, error) {
		key := s.chainKey(j, scope, chain)
		origin := originMem // unless this caller computes the entry
		v, _, err := s.cfg.Cache.GetOrCompute(key, func() (any, int64, error) {
			if cc := s.diskLookup(key); cc != nil {
				origin = originDisk
				return cc, cc.SizeBytes(), nil
			}
			origin = originFresh
			cc, err := compute()
			if err != nil {
				return nil, 0, err
			}
			return cc, cc.SizeBytes(), nil
		})
		if err != nil {
			return nil, false, err
		}
		s.record(j, event{kind: evChain, origin: origin})
		return v.(*msa.CachedChain), origin != originFresh, nil
	}
}

// diskLookup reads one chain entry through the persistent tier. Every
// failure mode — a miss, a tripped breaker, a corrupt file, an
// undecodable payload — returns nil, never an error: the disk tier can
// only ever save work. A payload that passes the store's checksum but
// fails to decode is semantic corruption, so the entry is dropped to be
// rebuilt.
func (s *Server) diskLookup(key string) *msa.CachedChain {
	payload, codec, ok := s.cfg.DiskCache.Get(key)
	if !ok {
		return nil
	}
	if codec != chainCodec {
		s.cfg.DiskCache.Drop(key)
		return nil
	}
	cc, err := msa.DecodeCachedChain(payload)
	if err != nil {
		s.cfg.DiskCache.Drop(key)
		s.cfg.Metrics.Add("msa_chain_disk_decode_drops", 1)
		return nil
	}
	return cc
}

// spillChain is the memory cache's eviction hook: a chain pushed out of
// the LRU is written through to the disk tier. A chain the disk already
// holds — one read back from it, or evicted before — is not encoded again
// (entries are content-addressed, so Put would discard the bytes).
// Best-effort — a failed or degraded spill just means a future miss,
// never an error. msa_chain_spills counts the payloads encoded.
func (s *Server) spillChain(key string, val any, size int64) {
	cc, ok := val.(*msa.CachedChain)
	if !ok || s.cfg.DiskCache.Has(key) {
		return
	}
	payload, err := cc.Encode()
	if err != nil {
		return
	}
	_ = s.cfg.DiskCache.Put(key, chainCodec, payload)
	s.cfg.Metrics.Add("msa_chain_spills", 1)
}

// SpillCache flushes every chain entry currently resident in the memory
// tier to the disk tier and returns how many the disk now holds (entries
// it already held count, and are not encoded again). This is the afload
// -warm precompute path: fill the persistent tier from a trace now so a
// later cold-memory run starts against a warm disk.
func (s *Server) SpillCache() int {
	if s.cfg.Cache == nil || s.cfg.DiskCache == nil {
		return 0
	}
	n := 0
	s.cfg.Cache.Range(func(key string, val any, size int64) bool {
		cc, ok := val.(*msa.CachedChain)
		if !ok {
			return true
		}
		if s.cfg.DiskCache.Has(key) {
			n++
			return true
		}
		payload, err := cc.Encode()
		if err != nil {
			return true
		}
		if s.cfg.DiskCache.Put(key, chainCodec, payload) == nil {
			n++
		}
		return true
	})
	return n
}

// inputFingerprint serializes the content of an input that the MSA phase
// depends on: every chain's molecule type, copy count and residues. The
// name is included because the deterministic timing model derives its
// per-sample draw from it.
func inputFingerprint(in *inputs.Input) string {
	var b strings.Builder
	b.WriteString(in.Name)
	for _, c := range in.Chains {
		fmt.Fprintf(&b, ";%d|%d|%s|%s", c.Sequence.Type, len(c.IDs), c.Sequence.ID, c.Sequence.Letters())
	}
	return b.String()
}

func (s *Server) msaWorker() {
	defer s.wgA.Done()
	s.adjustLive(&s.msaLive, 1)
	defer s.adjustLive(&s.msaLive, -1)
	// The sequence number is allocated under the WFQ lock, so the (job,
	// seq) pairing — and therefore the dispatch digest — is identical no
	// matter how many workers race here.
	for {
		j, seq, ok := s.wfq.Pop()
		if !ok {
			return
		}
		s.record(j, event{kind: evDispatch, seq: seq})
		if s.qosEnabled() {
			s.cfg.QoS.RecordDispatch(j.tenant, seq)
		}
		s.runMSAGuarded(j)
	}
}

func (s *Server) gpuWorker() {
	defer s.wgB.Done()
	s.adjustLive(&s.gpuLive, 1)
	defer s.adjustLive(&s.gpuLive, -1)
	for j := range s.infQ {
		s.runInferenceGuarded(j, nil, 0)
	}
}

func (s *Server) adjustLive(counter *int, delta int) {
	s.mu.Lock()
	*counter += delta
	msaLive, gpuLive := s.msaLive, s.gpuLive
	s.mu.Unlock()
	// Pool-health gauges: a shortfall against the configured pool size on a
	// running server means a worker goroutine died.
	s.cfg.Metrics.SetGauge("msa_workers_live", int64(msaLive))
	s.cfg.Metrics.SetGauge("gpu_workers_live", int64(gpuLive))
}

// runMSAGuarded runs the MSA stage under guard. The stage marker
// distinguishes a panic during the search ("msa") from one at the
// GPU-queue hand-off ("handoff") — the hand-off case is the historical
// job-drain bug: the job was accepted by the MSA pool but never reached
// the GPU pool, so only the recovery path can make it terminal.
func (s *Server) runMSAGuarded(j *job) {
	stage := "msa"
	defer s.guard(&stage, j)
	s.runMSA(j, &stage)
}

// runInferenceGuarded is runMSAGuarded's GPU-side twin, for an unbatched
// job (b == nil) and for each member of a batched dispatch alike, so one
// member's panic cannot take its batch-mates down.
func (s *Server) runInferenceGuarded(j *job, b *inferenceBatch, share float64) {
	stage := "inference"
	defer s.guard(&stage, j)
	s.runInferenceJob(j, b, share)
}

// guard isolates worker panics: deferred around a stage, it recovers a
// panic there, fails the stage's jobs with error class "panic" and lets the
// worker goroutine survive, keeping the pool at full strength. *stage names
// where the panic struck.
func (s *Server) guard(stage *string, jobs ...*job) {
	r := recover()
	if r == nil {
		return
	}
	s.cfg.Metrics.Add("worker_panics", 1)
	s.cfg.Metrics.Add("worker_panics_"+*stage, 1)
	err := resilience.ErrPanic{Stage: *stage, Value: fmt.Sprint(r)}
	for _, j := range jobs {
		s.fail(j, err)
	}
}

// jobCtx derives the request's wall-clock context from its deadline and the
// server's life context, so a Kill fails every in-flight stage at its next
// context check.
func (s *Server) jobCtx(j *job) (context.Context, context.CancelFunc) {
	if j.deadline.IsZero() {
		return context.WithCancel(s.killCtx)
	}
	return context.WithDeadline(s.killCtx, j.deadline)
}

// runMSA executes (or fetches) the MSA stage for one job and hands it to
// the GPU pool. The send into the inference queue blocks when the GPU pool
// is saturated — that backpressure is the pipelining: this MSA worker
// pauses instead of racing ahead unboundedly.
//
// The fault-tolerance envelope around the stage: the breaker plan decides
// which databases are skipped up front; the stage retry loop re-runs a
// transiently faulted search up to MSAAttempts times, with the job's
// checkpoint replaying every chain the failed attempt completed; and the
// stage outcome settles every involved breaker.
func (s *Server) runMSA(j *job, stage *string) {
	s.cfg.Metrics.Add("msa_stage_runs", 1)
	if h := s.cfg.PanicHook; h != nil {
		h("msa", j.ordinal)
	}
	ctx, cancel := s.jobCtx(j)
	defer cancel()
	skip, probes := s.breakerPlan(j)
	opts := s.pipelineOpts(j)
	opts.SkipDBs = skip
	opts.MSACheckpoint = j.checkpoint
	if j.qosLevel >= qos.LevelDropDB {
		// The deepest non-shed rung: tighten the modeled MSA budget onto
		// the database-drop degradation ladder (PR 2) — the over-quota
		// request trades MSA depth for shared-pool time.
		opts.Budget.MSASeconds = brownoutMSABudget
	}
	if s.cfg.Cache != nil {
		opts.ChainCache = s.chainFetcher(j)
	}
	var mp *core.MSAPhase
	var err error
	for attempt := 1; ; attempt++ {
		mp, err = s.suite.RunMSAPhase(ctx, j.in, j.machine, opts)
		if err == nil {
			if attempt > 1 {
				mp.Resilience.Record(resilience.Event{
					Stage: "msa", Kind: resilience.KindChainRetry,
					Detail: fmt.Sprintf("stage attempt %d succeeded; %d chains replayed from checkpoint", attempt, restoredChains(mp)),
				})
			}
			break
		}
		if attempt >= s.cfg.MSAAttempts || !resilience.IsTransient(err) || ctx.Err() != nil {
			break
		}
		s.cfg.Metrics.Add("msa_stage_retries", 1)
	}
	// A request is a cache hit when every chain came from a cache tier —
	// no database was searched on its behalf. Charged MSA seconds scale by
	// the fresh-work share: the phase time is cache-independent (the
	// determinism contract), but a request whose chains were largely
	// replayed only occupies a CPU lane for the work it really added.
	hit := false
	var charged float64
	if err == nil {
		charged = mp.Seconds
		if d := mp.Data; d != nil && d.CachedWork > 0 {
			hit = d.FreshWork == 0
			charged = mp.Seconds * float64(d.FreshWork) / float64(d.FreshWork+d.CachedWork)
		}
	}
	s.feedBreakers(j, mp, hit, err, skip, probes)
	if err != nil {
		s.fail(j, err)
		return
	}
	if j.qosLevel > qos.LevelNone {
		mp.Resilience.Record(resilience.Event{
			Stage: "msa", Kind: resilience.KindBrownout,
			Detail: fmt.Sprintf("tenant %s degraded at rung %s", j.tenant, j.qosLevel),
		})
	}
	s.record(j, event{kind: evMSA, phase: mp, secs: charged, hit: hit, partial: len(skip) > 0})
	*stage = "handoff"
	if h := s.cfg.PanicHook; h != nil {
		h("handoff", j.ordinal)
	}
	s.infQ <- j
}

// runInferenceJob executes the inference stage and completes the job. A job
// that somehow arrives already terminal (failed elsewhere under fault
// load) is left alone — terminal states are final. The per-request result
// is canonical whether the job dispatches alone (b == nil) or rides batch
// b — computed with the same pipeline options, so it is bitwise identical
// either way. Batching affects only attribution: a batch member's charged
// inference seconds are its amortized share of the batched dispatch's
// modeled time instead of the canonical breakdown total.
func (s *Server) runInferenceJob(j *job, b *inferenceBatch, share float64) {
	if !s.record(j, event{kind: evInference}) {
		return
	}
	s.cfg.Metrics.Add("inference_stage_runs", 1)
	if h := s.cfg.PanicHook; h != nil {
		h("inference", j.ordinal)
	}
	ctx, cancel := s.jobCtx(j)
	defer cancel()
	opts := s.pipelineOpts(j)
	pb, err := s.suite.RunInferencePhase(ctx, j.in, j.machine, opts)
	if err != nil {
		s.fail(j, err)
		return
	}
	s.mu.Lock()
	mp := msaPhase(j)
	s.mu.Unlock()
	res := core.ComposeResult(j.in, j.machine, j.threads, mp, pb)
	if b == nil {
		share = res.Inference.Total()
	}
	s.record(j, event{kind: evDone, result: res, secs: share, batch: b})
}

// ErrorClass buckets a request failure for metrics, exit codes and the
// HTTP API: "panic" (a recovered worker panic), "timeout" (deadline or
// stage budget), "oom" (the §VI memory gate), "overloaded-queue-full" /
// "overloaded-rate-limited" / "overloaded-brownout" (admission shed,
// classed by resilience.ShedReason), "fault" (an injected or storage
// fault that exhausted its retry budget — including a database that
// stayed dark), "error" otherwise.
func ErrorClass(err error) string {
	var st resilience.ErrStageTimeout
	var oom core.ErrProjectedOOM
	var fe *resilience.FaultError
	switch {
	case resilience.IsPanic(err):
		return "panic"
	case errors.As(err, &st),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return "timeout"
	case errors.As(err, &oom):
		return "oom"
	case resilience.IsOverloaded(err):
		return "overloaded-" + resilience.ShedReasonOf(err).String()
	case errors.As(err, &fe):
		return "fault"
	default:
		return "error"
	}
}

// fail ends a job with err. A job already terminal is left untouched
// (record refuses it), so the panic-recovery path and a concurrent stage
// completion cannot double-fail.
func (s *Server) fail(j *job, err error) {
	s.record(j, event{kind: evFailed, err: err})
}
