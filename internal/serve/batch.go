package serve

// Cross-request GPU batching (DESIGN §14). The paper's Figure 8 shows
// host-side device init + XLA compile dominating GPU time for small inputs
// on the server platform (>75% overhead); dispatching one request per
// simulated device prices that fixed cost per request. The batching tier
// here coalesces queued same-shape inference jobs into one batched simgpu
// dispatch, so the fixed costs amortize across members — ParaFold's
// decouple-and-batch observation applied at the serving layer — and a
// compiled-graph cache keyed by (shape bucket, model config, machine)
// charges XLA compile once per bucket per replica.
//
// Determinism: a single dispatcher goroutine drains the inference queue in
// hand-off order and groups maximal runs of consecutive same-bucket jobs,
// sealing a batch on a bucket/lane change, on the batch cap (the
// memory-footprint model's Model.MaxBatch, optionally tightened by
// config), or on upstream quiescence (no admitted job remains that could
// still join). Composition is therefore a pure function of the arrival
// order and the policy — never of GPU worker timing — and with one MSA
// worker the arrival order is the submit order, which is what the
// determinism tests pin. Per-request *results* stay canonical and
// batching-invariant: each member's PipelineResult is computed exactly as
// in unbatched serving; batching changes only the charged-seconds
// attribution (each member is charged its amortized share of the batch
// total, shares summing to the batch total).

import (
	"fmt"
	"strconv"

	"afsysbench/internal/batch"
	"afsysbench/internal/cache"
	"afsysbench/internal/core"
	"afsysbench/internal/platform"
	"afsysbench/internal/qos"
	"afsysbench/internal/resilience"
	"afsysbench/internal/simgpu"
)

// BatchConfig tunes cross-request GPU batching. The zero value disables
// it: every inference dispatches alone (the pre-batching behavior).
type BatchConfig struct {
	// Enabled turns the batching tier on: the GPU pool consumes sealed
	// batches from the dispatcher instead of individual jobs.
	Enabled bool
	// Buckets are the shape-policy pad boundaries (nil = the stock
	// batch.DefaultBuckets set). Tokens beyond the largest bucket run at
	// their exact size.
	Buckets []int
	// MaxBatch caps members per dispatch on top of the memory-footprint
	// cap (0 = memory cap only). The memory cap always applies: a batch
	// never spills when its members individually fit.
	MaxBatch int
}

// inferenceBatch is one sealed batched dispatch: same-bucket jobs on the
// same machine and thread setting, in arrival order.
type inferenceBatch struct {
	id      string
	bucket  int
	machine platform.Machine
	threads int
	jobs    []*Job
	// profile is the bucket-level host compile profile; compileCharged
	// marks the dispatch that paid it (the compiled-graph cache miss).
	profile        core.HostProfile
	compileCharged bool
	// err is a seal-time compile-sim failure; the executor fails every
	// member with it.
	err error
}

// initBatching wires the batching tier's state at construction.
func (s *Server) initBatching() {
	if !s.cfg.Batch.Enabled {
		return
	}
	s.policy = batch.NewPolicy(s.cfg.Batch.Buckets)
	if s.policy.Buckets() == nil {
		s.policy = batch.Default()
	}
	s.batchQ = make(chan *inferenceBatch, s.cfg.QueueDepth)
	s.batchKick = make(chan struct{}, 1)
	// The compiled-graph cache holds the bucket set plus four entries of
	// headroom for exact-size shapes past the largest bucket. Entries are
	// stored with size 1, so the byte capacity is the entry cap; evictions
	// show up in the cache's own counters.
	s.compileCache = cache.New(int64(len(s.policy.Buckets()) + 4))
	s.meter = batch.NewMeter()
}

// batchCap is the members-per-dispatch bound for a bucket on a machine:
// the memory-footprint cap (never spill a batch whose members
// individually fit), tightened by the configured MaxBatch.
func (s *Server) batchCap(mach platform.Machine, bucket int) int {
	c := s.suite.Model.MaxBatch(mach, bucket)
	if m := s.cfg.Batch.MaxBatch; m > 0 && m < c {
		c = m
	}
	if c < 1 {
		c = 1
	}
	return c
}

// compileKey is the content address of one compiled graph: shape bucket,
// model configuration, machine. Threads are deliberately absent — the
// executable is reusable across thread settings; contention is priced at
// use.
func (s *Server) compileKey(bucket int, mach platform.Machine) string {
	return cache.Key(
		"xla-graph/v1",
		strconv.Itoa(bucket),
		fmt.Sprintf("model=%+v", s.suite.Model),
		mach.Name,
	)
}

// leaveUpstream marks a job as no longer upstream of the dispatcher —
// either received from the inference queue or terminal before reaching it
// — and wakes the dispatcher so its quiescence check can re-run. Exactly
// once per job.
func (s *Server) leaveUpstream(job *Job) {
	if s.batchKick == nil {
		return
	}
	s.mu.Lock()
	if job.leftUpstream {
		s.mu.Unlock()
		return
	}
	job.leftUpstream = true
	s.preBatch--
	s.mu.Unlock()
	select {
	case s.batchKick <- struct{}{}:
	default:
	}
}

// upstreamPending counts admitted jobs the dispatcher has not yet received
// (queued, in MSA, or in the inference queue). While it is nonzero the
// open batch may still grow.
func (s *Server) upstreamPending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.preBatch
}

// batchDispatcher is the single goroutine that turns the hand-off stream
// into sealed batches. See the package comment above for the sealing rules
// and the determinism argument.
func (s *Server) batchDispatcher() {
	defer s.wgDisp.Done()
	var open *inferenceBatch
	seq := 0
	seal := func() {
		if open == nil {
			return
		}
		s.sealCompile(open)
		s.batchQ <- open
		open = nil
	}
	add := func(job *Job) {
		s.leaveUpstream(job)
		// A job already terminal (failed upstream under fault load or a
		// deadline) must not inflate a batch: its members' amortized
		// shares would stop summing to the dispatch total.
		s.mu.Lock()
		terminal := job.state == StateDone || job.state == StateFailed
		s.mu.Unlock()
		if terminal {
			return
		}
		tokens := job.in.TotalResidues()
		bucket := s.policy.PadTo(tokens)
		// The batch-cap brownout rung: an over-quota job under load
		// dispatches as a singleton — it cannot inflate a shared batch's
		// bucket (and padding waste) for fair-share tenants.
		if job.qosLevel >= qos.LevelBatchCap {
			seal()
			open = &inferenceBatch{
				id:      fmt.Sprintf("b%04d", seq),
				bucket:  bucket,
				machine: job.machine,
				threads: job.threads,
				jobs:    []*Job{job},
			}
			seq++
			s.mu.Lock()
			s.meter.ObserveJob(bucket, tokens)
			s.mu.Unlock()
			seal()
			return
		}
		if open != nil && (open.bucket != bucket || open.machine.Name != job.machine.Name || open.threads != job.threads) {
			seal()
		}
		if open == nil {
			open = &inferenceBatch{
				id:      fmt.Sprintf("b%04d", seq),
				bucket:  bucket,
				machine: job.machine,
				threads: job.threads,
			}
			seq++
		}
		open.jobs = append(open.jobs, job)
		s.mu.Lock()
		s.meter.ObserveJob(bucket, tokens)
		s.mu.Unlock()
		if len(open.jobs) >= s.batchCap(job.machine, bucket) {
			seal()
		}
	}
	for {
		select {
		case job, ok := <-s.infQ:
			if !ok {
				seal()
				close(s.batchQ)
				return
			}
			add(job)
		case <-s.batchKick:
		}
		// Drain immediately-available arrivals before the quiescence
		// check, so a burst of back-to-back hand-offs coalesces fully.
		for drained := false; !drained; {
			select {
			case job, ok := <-s.infQ:
				if !ok {
					seal()
					close(s.batchQ)
					return
				}
				add(job)
			default:
				drained = true
			}
		}
		if open != nil && s.upstreamPending() == 0 {
			seal()
		}
	}
}

// sealCompile resolves the batch's compiled graph at seal time, on the
// dispatcher goroutine — which is what makes the charge-or-reuse decision
// deterministic in arrival order, independent of how GPU workers race. The
// first sealed batch of a bucket misses and is charged the bucket-level
// compile (amortized across its members); later batches reuse the
// executable for free. An entry evicted by the cache bound re-misses and
// re-charges — honest accounting for a replica whose bucket working set
// exceeds its cache.
func (s *Server) sealCompile(b *inferenceBatch) {
	key := s.compileKey(b.bucket, b.machine)
	if v, ok := s.compileCache.Get(key); ok {
		b.profile = v.(core.HostProfile)
		s.cfg.Metrics.Add("compile_cache_hits", 1)
		return
	}
	hp, err := s.suite.CompileSim(b.machine, b.bucket)
	if err != nil {
		b.err = err
		return
	}
	s.compileCache.Add(key, hp, 1)
	b.profile = hp
	b.compileCharged = true
	s.cfg.Metrics.Add("compile_cache_misses", 1)
}

// batchGPUWorker consumes sealed batches; the gpuLive gauge covers it like
// the unbatched worker.
func (s *Server) batchGPUWorker() {
	defer s.wgB.Done()
	s.adjustLive(&s.gpuLive, 1)
	defer s.adjustLive(&s.gpuLive, -1)
	for b := range s.batchQ {
		s.runBatchGuarded(b)
	}
}

// runBatchGuarded isolates batch-level panics (the batch pricing itself):
// every non-terminal member fails with error class "panic" and the worker
// survives. Per-member execution has its own guard so one member's panic
// cannot take its batch-mates down.
func (s *Server) runBatchGuarded(b *inferenceBatch) {
	defer func() {
		if r := recover(); r != nil {
			s.cfg.Metrics.Add("worker_panics", 1)
			s.cfg.Metrics.Add("worker_panics_inference", 1)
			err := resilience.ErrPanic{Stage: "inference", Value: fmt.Sprint(r)}
			for _, job := range b.jobs {
				s.fail(job, err)
			}
		}
	}()
	s.runBatch(b)
}

// runBatch prices the batched dispatch once, records the accounting, and
// completes each member with its amortized share.
func (s *Server) runBatch(b *inferenceBatch) {
	if b.err != nil {
		for _, job := range b.jobs {
			s.fail(job, b.err)
		}
		return
	}
	size := len(b.jobs)
	compileSecs := 0.0
	if b.compileCharged {
		compileSecs = b.profile.CompileSeconds
	}
	// ColdModel charges device init per dispatch (one container per
	// batch); the compiled-graph cache models a replica-local persistent
	// XLA cache shared across those containers. A warm server skips init
	// but still pays compile once per new bucket (Recompile) — a resident
	// model does not own executables for shapes it has never seen.
	pb, err := simgpu.BatchedInference(b.machine, s.suite.Model, b.bucket, size, simgpu.InferenceOptions{
		Threads:        b.threads,
		WarmStart:      !s.cfg.ColdModel,
		Recompile:      b.compileCharged,
		CompileSeconds: compileSecs,
	})
	if err != nil {
		for _, job := range b.jobs {
			s.fail(job, err)
		}
		return
	}
	s.recordBatch(b, pb)
	share := pb.Total() / float64(size)
	for _, job := range b.jobs {
		s.runBatchMemberGuarded(job, b, share)
	}
}

func (s *Server) runBatchMemberGuarded(job *Job, b *inferenceBatch, share float64) {
	defer func() {
		if r := recover(); r != nil {
			s.cfg.Metrics.Add("worker_panics", 1)
			s.cfg.Metrics.Add("worker_panics_inference", 1)
			s.fail(job, resilience.ErrPanic{Stage: "inference", Value: fmt.Sprint(r)})
		}
	}()
	s.runInferenceJob(job, b, share)
}

// recordBatch lands the dispatch on the meter, the aggregate overhead
// accounting, and the metrics registry.
func (s *Server) recordBatch(b *inferenceBatch, pb simgpu.PhaseBreakdown) {
	s.mu.Lock()
	s.meter.ObserveBatch(b.bucket, b.compileCharged)
	s.batchAgg.batches++
	s.batchAgg.members += len(b.jobs)
	s.batchAgg.totalSeconds += pb.Total()
	s.batchAgg.computeSeconds += pb.ComputeSeconds
	s.mu.Unlock()
	s.cfg.Metrics.Add("batches_dispatched", 1)
	s.cfg.Metrics.Add("batched_jobs", int64(len(b.jobs)))
}

// batchAggregate is the running modeled-time account over every dispatched
// batch (guarded by the server mutex).
type batchAggregate struct {
	batches        int
	members        int
	totalSeconds   float64
	computeSeconds float64
}

// BatchReport is the serving-side batching summary for load reports,
// benchmarks and the crossover sweep.
type BatchReport struct {
	Enabled bool  `json:"enabled"`
	Buckets []int `json:"buckets"`
	// Batches/BatchedJobs count dispatches and the members they carried;
	// MeanBatchSize is their ratio.
	Batches       int     `json:"batches"`
	BatchedJobs   int     `json:"batched_jobs"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	// TotalSeconds/ComputeSeconds sum the modeled batch dispatch times;
	// OverheadFraction is the aggregate non-compute share — the Figure 8
	// quantity, here over batched dispatches instead of single requests.
	TotalSeconds     float64 `json:"total_seconds"`
	ComputeSeconds   float64 `json:"compute_seconds"`
	OverheadFraction float64 `json:"overhead_fraction"`
	// PaddingWastePct is dispatched-but-unowned tokens over dispatched
	// tokens, meter-wide; PerBucket breaks both padding and compile
	// sharing down per bucket.
	PaddingWastePct float64             `json:"padding_waste_pct"`
	PerBucket       []batch.BucketStats `json:"per_bucket"`
	// CompileCache is the compiled-graph cache's counter snapshot
	// (hits/misses/evictions).
	CompileCache cache.Stats `json:"compile_cache"`
}

// BatchReport snapshots the batching tier's accounting (nil when batching
// is disabled).
func (s *Server) BatchReport() *BatchReport {
	if !s.cfg.Batch.Enabled {
		return nil
	}
	s.mu.Lock()
	agg := s.batchAgg
	rows := s.meter.Snapshot()
	_, actual, padded := s.meter.Totals()
	s.mu.Unlock()
	r := &BatchReport{
		Enabled:        true,
		Buckets:        s.policy.Buckets(),
		Batches:        agg.batches,
		BatchedJobs:    agg.members,
		TotalSeconds:   agg.totalSeconds,
		ComputeSeconds: agg.computeSeconds,
		PerBucket:      rows,
		CompileCache:   s.compileCache.Stats(),
	}
	if agg.batches > 0 {
		r.MeanBatchSize = float64(agg.members) / float64(agg.batches)
	}
	if agg.totalSeconds > 0 {
		r.OverheadFraction = (agg.totalSeconds - agg.computeSeconds) / agg.totalSeconds
	}
	if padded > 0 {
		r.PaddingWastePct = 100 * float64(padded-actual) / float64(padded)
	}
	return r
}
