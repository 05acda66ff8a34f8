// Package resilience is the fault model and degradation policy of the
// end-to-end pipeline. The paper's headline failure modes are operational,
// not algorithmic: the MSA phase dominates wall time, the desktop's NVMe
// saturates during database streaming, and stock AF3 simply dies in the OOM
// killer when the nhmmer stage balloons. This package supplies the pieces
// the orchestrator needs to survive those: a deterministic fault-injection
// layer (seeded, no wall clock), a capped-exponential retry policy with
// jittered backoff, per-stage time budgets, and a typed event taxonomy that
// records every retry and every rung of the degradation ladder
// (full profile → reduced database set → single-sequence inference).
//
// Determinism is a hard requirement inherited from the rest of the suite:
// every decision — which read attempt fails, how long a backoff waits —
// derives from the run's seed, the sample name, and the attempt ordinal,
// never from wall-clock time or goroutine scheduling. The same seed and
// fault spec therefore produce byte-identical retry counts and degradation
// events at any worker count.
package resilience

import (
	"errors"
	"fmt"

	"afsysbench/internal/rng"
)

// Class is the failure class of an injected fault.
type Class int

const (
	// Transient faults fail a bounded number of read attempts and then
	// clear (controller reset, momentary link drop). The retry policy is
	// expected to absorb them.
	Transient Class = iota
	// Permanent faults never clear (dead namespace, corrupt database);
	// retrying is futile and the orchestrator must degrade around them.
	Permanent
	// Stall delays one worker shard of the MSA scan without failing it
	// (a straggler thread descheduled behind a noisy neighbor).
	Stall
	// MemSpike inflates the application's anonymous memory mid-stream,
	// squeezing the page cache and — past the machine's capacity — tripping
	// the memory ceiling the paper's RNA-1335 run died on.
	MemSpike
	// ChainTransient fails an MSA chain's search transiently: the first
	// Count attempts of each matching chain error out, exercising the
	// serving layer's checkpointed stage retries (only the faulted chain
	// re-runs; completed chains replay from the checkpoint).
	ChainTransient
	// DiskFault fails operations of the persistent cache tier: torn writes,
	// fsync errors, crashes between temp-write and rename, silent post-write
	// bit flips, and read I/O errors. The disk store retries transient ops,
	// detects silent corruption by checksum, and trips its breaker into
	// memory-only mode when the disk stays broken.
	DiskFault
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Stall:
		return "stall"
	case MemSpike:
		return "memspike"
	case ChainTransient:
		return "chainfault"
	case DiskFault:
		return "diskfault"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// FaultError is the error surfaced by an injected read failure.
type FaultError struct {
	Class   Class
	DB      string
	Attempt int
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("resilience: injected %s fault on %s (attempt %d)", e.Class, e.DB, e.Attempt)
}

// IsTransient reports whether err is an injected transient fault —
// a read fault that clears after a bounded number of attempts, a
// chain-scoped transient, or a disk-op fault (all are worth retrying).
func IsTransient(err error) bool {
	var fe *FaultError
	if !errors.As(err, &fe) {
		return false
	}
	return fe.Class == Transient || fe.Class == ChainTransient || fe.Class == DiskFault
}

// IsPermanent reports whether err is an injected permanent fault.
func IsPermanent(err error) bool {
	fe, ok := err.(*FaultError)
	return ok && fe.Class == Permanent
}

// ErrDBUnavailable is recorded (and wrapped into events) when a database
// stays unreadable after the retry budget: permanently failed, or transient
// faults outlasting MaxAttempts.
type ErrDBUnavailable struct {
	DB       string
	Attempts int
	Cause    error
}

// Error implements error.
func (e ErrDBUnavailable) Error() string {
	return fmt.Sprintf("resilience: database %s unavailable after %d attempts: %v", e.DB, e.Attempts, e.Cause)
}

// Unwrap exposes the final attempt's fault.
func (e ErrDBUnavailable) Unwrap() error { return e.Cause }

// ErrPanic is the failure recorded when a serving worker recovers a
// per-job panic: the job is failed with this error (class "panic") while
// the worker goroutine survives, keeping the pool at full strength. Value
// is the rendered panic payload.
type ErrPanic struct {
	// Stage is where the panic was recovered ("msa", "handoff",
	// "inference").
	Stage string
	// Value is the rendered recover() payload.
	Value string
}

// Error implements error.
func (e ErrPanic) Error() string {
	return fmt.Sprintf("resilience: recovered panic in %s stage: %s", e.Stage, e.Value)
}

// IsPanic reports whether err is a recovered worker panic.
func IsPanic(err error) bool {
	var ep ErrPanic
	return errors.As(err, &ep)
}

// ShedReason classifies why admission control rejected a request. The
// single "overloaded" bucket of the pre-QoS serving tier told operators
// nothing actionable; the three classes here separate "the system is full"
// (queue-full — add capacity or wait) from "you are over your quota"
// (rate-limited — the tenant's token bucket was empty) from "the system is
// browning out and you were chosen" (brownout — over-quota tenants are
// shed first when global occupancy crosses the top ladder rung).
type ShedReason int

const (
	// ShedQueueFull: the shared admission queue (or the modeled backlog
	// bound) had no room. The zero value, so pre-QoS shed sites keep their
	// historical meaning.
	ShedQueueFull ShedReason = iota
	// ShedRateLimited: the tenant's admission token bucket could not cover
	// the request's cost — the tenant exceeded its provisioned rate.
	ShedRateLimited
	// ShedBrownout: global occupancy crossed the shed rung of the brownout
	// ladder and the tenant was over its fair share, so it absorbed the
	// rejection while in-quota tenants kept being admitted.
	ShedBrownout
)

// String implements fmt.Stringer.
func (r ShedReason) String() string {
	switch r {
	case ShedQueueFull:
		return "queue-full"
	case ShedRateLimited:
		return "rate-limited"
	case ShedBrownout:
		return "brownout"
	default:
		return fmt.Sprintf("ShedReason(%d)", int(r))
	}
}

// ErrOverloaded is the admission-control shed error: the request was
// rejected deterministically at the door instead of growing an unbounded
// backlog — a full serving queue, an empty tenant token bucket, or a
// brownout decision. Callers (HTTP 503, load generators) treat it as a
// distinct outcome class from failures — the request was never started.
type ErrOverloaded struct {
	// Queued is the queue occupancy observed at rejection time.
	Queued int
	// Capacity is the configured queue bound.
	Capacity int
	// Reason is the shed class; the zero value (queue-full) preserves the
	// pre-QoS meaning of the error.
	Reason ShedReason
	// Tenant is the shed tenant ("" for untenanted requests).
	Tenant string
}

// Error implements error.
func (e ErrOverloaded) Error() string {
	msg := fmt.Sprintf("resilience: overloaded (%s)", e.Reason)
	if e.Tenant != "" {
		msg += " tenant " + e.Tenant
	}
	return msg + fmt.Sprintf(": admission queue %d/%d", e.Queued, e.Capacity)
}

// IsOverloaded reports whether err is an admission-control rejection.
func IsOverloaded(err error) bool {
	var eo ErrOverloaded
	return errors.As(err, &eo)
}

// ShedReasonOf extracts the shed class from an admission rejection
// (queue-full for non-overload errors, matching the zero value).
func ShedReasonOf(err error) ShedReason {
	var eo ErrOverloaded
	if errors.As(err, &eo) {
		return eo.Reason
	}
	return ShedQueueFull
}

// ErrStageTimeout is returned when a pipeline stage cannot complete inside
// its deadline: the wall-clock context expired, or a modeled stage budget
// was exceeded by a stage that has no degradation path (inference).
// MSA-budget exhaustion never raises this — the orchestrator degrades the
// MSA profile instead.
type ErrStageTimeout struct {
	Stage string
	// BudgetSeconds is the modeled budget that was exceeded (0 when the
	// cause is a wall-clock context deadline/cancellation).
	BudgetSeconds float64
	// NeedSeconds is the modeled time the stage wanted (0 for ctx causes).
	NeedSeconds float64
	// Cause is the context error, if the deadline was wall-clock.
	Cause error
}

// Error implements error.
func (e ErrStageTimeout) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("resilience: stage %s aborted: %v", e.Stage, e.Cause)
	}
	return fmt.Sprintf("resilience: stage %s needs %.1fs, budget %.1fs", e.Stage, e.NeedSeconds, e.BudgetSeconds)
}

// Unwrap exposes the context error so errors.Is(err, context.Canceled) and
// friends keep working through the typed wrapper.
func (e ErrStageTimeout) Unwrap() error { return e.Cause }

// StageBudget caps modeled per-stage time (simulated seconds, not wall
// clock — so budget decisions are deterministic). Zero means unlimited.
type StageBudget struct {
	// MSASeconds bounds the MSA phase. Exhaustion triggers the degradation
	// ladder: drop the most expensive database, re-plan, and ultimately
	// fall back to single-sequence inference.
	MSASeconds float64
	// InferenceSeconds bounds the inference phase. Inference has no
	// degradation path, so exceeding it returns ErrStageTimeout.
	InferenceSeconds float64
}

// The transient-fault retry policy: capped exponential backoff with
// deterministic jitter. Nothing tunes it, so it is four constants.
const (
	// MaxAttempts bounds attempts per I/O operation: a database open, a
	// stream pass, a disk-tier read or write.
	MaxAttempts = 4
	// backoffBaseSeconds is the first backoff delay.
	backoffBaseSeconds = 0.5
	// backoffMaxSeconds caps one backoff delay.
	backoffMaxSeconds = 8
	// backoffJitterFrac is the ± relative jitter on each delay.
	backoffJitterFrac = 0.2
)

// Backoff returns the delay before retry number attempt (1-based): the
// capped exponential base*2^(attempt-1), jittered by the deterministic
// source so concurrent retries decorrelate without wall-clock randomness.
func Backoff(attempt int, src *rng.Source) float64 {
	d := backoffBaseSeconds
	for i := 1; i < attempt && d < backoffMaxSeconds; i++ {
		d = min(2*d, backoffMaxSeconds)
	}
	return d * (1 + backoffJitterFrac*(2*src.Float64()-1))
}

// Kind labels one resilience event.
type Kind int

const (
	// KindRetry: a read attempt failed transiently and was retried.
	KindRetry Kind = iota
	// KindDropDB: a database was dropped from the MSA profile (permanent
	// fault or retry budget exhausted).
	KindDropDB
	// KindBudgetDrop: a database was dropped to fit the MSA stage budget.
	KindBudgetDrop
	// KindBudgetOverrun: the stage still exceeds its budget with nothing
	// left to shed; the run proceeds and records the overrun.
	KindBudgetOverrun
	// KindStall: a worker shard stalled, extending the scan's critical path.
	KindStall
	// KindMemSpike: anonymous memory spiked mid-stream, shrinking the page
	// cache (survivable: later passes re-read from disk).
	KindMemSpike
	// KindMemCeiling: the spike exceeded the machine's memory; the deep MSA
	// was abandoned instead of letting the OOM killer decide.
	KindMemCeiling
	// KindSingleSequence: the terminal rung — inference ran without an MSA.
	KindSingleSequence
	// KindBreakerSkip: a database was excluded before opening because its
	// circuit breaker was open — the request took the degradation ladder
	// immediately instead of burning its deadline on doomed retries.
	KindBreakerSkip
	// KindChainRetry: an MSA stage attempt failed on a chain and was
	// retried from its checkpoint (completed chains replayed, only the
	// failed chain re-run).
	KindChainRetry
	// KindBrownout: the request ran degraded by the multi-tenant brownout
	// ladder — its tenant was over quota while global occupancy was high,
	// so the early-warning rung was recorded, its batch bucket capped, or
	// its MSA budget tightened onto the DB-drop ladder. The Detail names
	// the rung.
	KindBrownout
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRetry:
		return "retry"
	case KindDropDB:
		return "drop-db"
	case KindBudgetDrop:
		return "budget-drop"
	case KindBudgetOverrun:
		return "budget-overrun"
	case KindStall:
		return "stall"
	case KindMemSpike:
		return "mem-spike"
	case KindMemCeiling:
		return "mem-ceiling"
	case KindSingleSequence:
		return "single-sequence"
	case KindBreakerSkip:
		return "breaker-skip"
	case KindChainRetry:
		return "chain-retry"
	case KindBrownout:
		return "brownout"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded resilience action. Fields are plain values (the
// cause is pre-rendered to a string) so the event stream compares and
// prints byte-identically across runs.
type Event struct {
	Stage   string // "msa", "stream", "inference"
	Kind    Kind
	DB      string  // database involved ("" when not database-scoped)
	Seconds float64 // backoff/stall seconds where relevant
	Detail  string
}

// String renders the event for logs and the CLI report.
func (e Event) String() string {
	s := fmt.Sprintf("%-7s %-15s", e.Stage, e.Kind)
	if e.DB != "" {
		s += " " + e.DB
	}
	if e.Seconds > 0 {
		s += fmt.Sprintf(" (%.2fs)", e.Seconds)
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// Report is the retry/latency/degradation accounting of one pipeline run.
type Report struct {
	// Retries counts transient read attempts that were retried.
	Retries int
	// RetrySeconds is the summed backoff wait, charged to the stage's wall
	// time (backoff does not overlap compute or streaming).
	RetrySeconds float64
	// DroppedDBs lists databases removed from the MSA profile, in drop
	// order.
	DroppedDBs []string
	// SingleSequence reports the terminal fallback: inference ran with no
	// MSA (alignment depth 1).
	SingleSequence bool
	// Degraded reports whether any ladder rung was taken (dropped database
	// or single-sequence fallback). Pure retries do not count as
	// degradation.
	Degraded bool
	// Events is the ordered action log.
	Events []Event
}

// Record appends an event.
func (r *Report) Record(e Event) { r.Events = append(r.Events, e) }

// String summarizes the report in one line.
func (r *Report) String() string {
	return fmt.Sprintf("retries=%d retry_wait=%.2fs dropped=%d single_sequence=%v degraded=%v",
		r.Retries, r.RetrySeconds, len(r.DroppedDBs), r.SingleSequence, r.Degraded)
}
