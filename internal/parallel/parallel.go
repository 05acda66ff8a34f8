// Package parallel is the shared worker-pool compute engine behind the
// repository's hot paths: the Pairformer and diffusion tensor kernels, and
// the MSA database scan. It provides deterministic data-parallel loops:
// work is sharded into contiguous index ranges so that every reduction
// stays inside one shard, which makes kernel results bitwise identical at
// any worker count (and independent of GOMAXPROCS). That invariant is what
// lets the golden tests and the seed-derived numerical results survive the
// move from serial to parallel execution.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size set of persistent worker goroutines. A Pool is safe
// for concurrent use; a nil *Pool is valid and runs everything inline on
// the caller (the serial baseline).
type Pool struct {
	workers int
	jobs    chan job
	closed  sync.Once
}

type job struct {
	fn     func(shard, lo, hi int)
	shard  int
	lo, hi int
	// pending counts the originating Run call's outstanding jobs; the
	// executor decrements it after fn returns (the atomic gives Run's
	// return a happens-after edge over the job's writes).
	pending *atomic.Int32
}

// New builds a pool with the given worker count (clamped to at least 1).
// A 1-worker pool spawns no goroutines. Call Close when a locally created
// pool is no longer needed; pools from ForWorkers are shared and must not
// be closed.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		// workers-1 helpers: the goroutine calling Run always executes
		// shard 0 itself, so it is the pool's remaining worker.
		p.jobs = make(chan job, workers)
		for i := 0; i < workers-1; i++ {
			go p.work()
		}
	}
	return p
}

func (p *Pool) work() {
	for j := range p.jobs {
		j.fn(j.shard, j.lo, j.hi)
		j.pending.Add(-1)
	}
}

// Close releases the pool's helper goroutines. Run must not be called
// after Close.
func (p *Pool) Close() {
	if p == nil || p.jobs == nil {
		return
	}
	p.closed.Do(func() { close(p.jobs) })
}

// Workers returns the pool's worker count (1 for a nil pool). It is also
// the number of shards Run uses and therefore the scratch-buffer count a
// caller needs for per-shard workspace.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Serial reports whether Run would execute entirely inline (nil pool or a
// single worker). Hot kernels branch on it to call their range helper
// directly instead of building a closure for Run, which keeps the serial
// steady state allocation-free (a func literal passed to Run always
// escapes to the heap).
func (p *Pool) Serial() bool { return p == nil || p.workers == 1 }

// Run splits [0,n) into at most Workers() contiguous shards and invokes
// fn(shard, lo, hi) once per shard, blocking until all complete. Shard 0
// always runs on the calling goroutine, a full job channel makes the
// caller run the shard inline, and a waiting caller drains queued jobs
// instead of blocking — so Run never deadlocks, even when every helper is
// itself parked inside a nested Run.
//
// Determinism contract: fn must derive every output element purely from
// its index range — shard boundaries may change with the worker count, so
// a reduction must never be split across shards. Kernels written this way
// produce bitwise-identical results at any worker count. The shard index
// is stable within one Run call and may be used to pick per-shard scratch
// buffers (no two shards of one Run execute concurrently with the same
// index).
func (p *Pool) Run(n int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	shards := p.Workers()
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		fn(0, 0, n)
		return
	}
	var pending atomic.Int32
	for s := shards - 1; s >= 1; s-- {
		lo, hi := Span(n, s, shards)
		pending.Add(1)
		j := job{fn: fn, shard: s, lo: lo, hi: hi, pending: &pending}
		select {
		case p.jobs <- j:
		default:
			j.fn(j.shard, j.lo, j.hi)
			pending.Add(-1)
		}
	}
	lo, hi := Span(n, 0, shards)
	fn(0, lo, hi)
	// Drain while waiting: helper goroutines can all be parked inside
	// nested Run calls, in which case enqueued jobs (this call's or a
	// nested one's) would otherwise starve. Executing them here guarantees
	// global progress; the Gosched branch yields to helpers finishing the
	// last in-flight jobs.
	for pending.Load() > 0 {
		select {
		case j, ok := <-p.jobs:
			if !ok {
				// Close raced with Run (API misuse); wait out any jobs
				// still running on helpers before returning.
				for pending.Load() > 0 {
					runtime.Gosched()
				}
				return
			}
			j.fn(j.shard, j.lo, j.hi)
			j.pending.Add(-1)
		default:
			runtime.Gosched()
		}
	}
}

// RunCtx is Run with cancellation: once ctx is done, no further shard
// starts — undistributed shards are never dispatched, and shards still
// queued behind busy workers are skipped (their goroutine observes the
// cancellation before invoking fn). Shards already executing run to
// completion; a cancelled call therefore returns within one shard's work.
// RunCtx returns ctx.Err() (nil on a full, uncancelled fan-out).
//
// The determinism contract is Run's: when RunCtx completes with a nil
// error, every shard executed exactly once and results are bitwise
// identical at any worker count. A non-nil return means the output is
// partial and must be discarded.
func (p *Pool) RunCtx(ctx context.Context, n int, fn func(shard, lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	shards := p.Workers()
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		fn(0, 0, n)
		return ctx.Err()
	}
	done := ctx.Done()
	guarded := func(shard, lo, hi int) {
		select {
		case <-done:
		default:
			fn(shard, lo, hi)
		}
	}
	var pending atomic.Int32
	for s := shards - 1; s >= 1; s-- {
		if ctx.Err() != nil {
			break // stop dispatching; already-queued shards self-skip
		}
		lo, hi := Span(n, s, shards)
		pending.Add(1)
		j := job{fn: guarded, shard: s, lo: lo, hi: hi, pending: &pending}
		select {
		case p.jobs <- j:
		default:
			j.fn(j.shard, j.lo, j.hi)
			pending.Add(-1)
		}
	}
	if ctx.Err() == nil {
		lo, hi := Span(n, 0, shards)
		fn(0, lo, hi)
	}
	// Same drain-while-waiting discipline as Run; drained jobs from this
	// call are guarded and skip themselves once ctx is done.
	for pending.Load() > 0 {
		select {
		case j, ok := <-p.jobs:
			if !ok {
				for pending.Load() > 0 {
					runtime.Gosched()
				}
				return ctx.Err()
			}
			j.fn(j.shard, j.lo, j.hi)
			j.pending.Add(-1)
		default:
			runtime.Gosched()
		}
	}
	return ctx.Err()
}

// Span returns the s-th of `shards` contiguous ranges of [0,n) — the one
// shard rule behind Run and RunCtx, so shard boundaries are stable across
// the codebase. It is exported for code that must know which records a
// worker takes without running anything: msa credits a chain's per-record
// metering along these boundaries for a request's thread count, and the
// cluster's scatter nests its segments inside them.
func Span(n, s, shards int) (lo, hi int) {
	return n * s / shards, n * (s + 1) / shards
}

var (
	poolsMu sync.Mutex
	pools   = map[int]*Pool{}
)

// ForWorkers returns the shared pool with the given worker count, creating
// it on first use. Shared pools live for the process lifetime (their idle
// helpers cost nothing), which keeps hand-off race-free when concurrent
// pipeline runs ask for different thread counts.
func ForWorkers(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	poolsMu.Lock()
	defer poolsMu.Unlock()
	p, ok := pools[workers]
	if !ok {
		p = New(workers)
		pools[workers] = p
	}
	return p
}

// DefaultWorkers returns the core count the process sees (GOMAXPROCS).
// Subsystems sizing their own CPU-bound pools (the serving scheduler's MSA
// stage) use it so "one worker per core" is defined in exactly one place.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}
