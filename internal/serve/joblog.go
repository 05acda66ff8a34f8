package serve

// A job is its log (DESIGN §8). Submit writes a job's request header once;
// everything that happens to it afterwards is an event appended through
// record, under the server mutex, and every view of a job — its status,
// its completed row in the modeled schedules and the metrics — is a fold
// over that log. An empty log is a queued job; the last event decides the
// state. The folds are plain functions of a job, so no view can read
// server state the log does not hold.

import (
	"time"

	"afsysbench/internal/core"
	"afsysbench/internal/qos"
	"afsysbench/internal/resilience"
)

// eventKind names what happened to a job.
type eventKind uint8

const (
	// evDispatch: an MSA worker popped the job; seq is its WFQ dispatch
	// sequence number.
	evDispatch eventKind = iota
	// evChain: one MSA chain was served, from origin.
	evChain
	// evMSA: the MSA stage succeeded.
	evMSA
	// evHandoff: the batch dispatcher received the job (batching mode).
	evHandoff
	// evInference: the inference stage started.
	evInference
	// evDone and evFailed end the log.
	evDone
	evFailed
)

// chainOrigin is where one MSA chain came from: the memory tier, the disk
// tier, or a real search.
type chainOrigin uint8

const (
	originMem chainOrigin = iota
	originDisk
	originFresh
)

// originCounter is the registry counter each chain origin bumps.
var originCounter = [...]string{
	originMem:   "msa_chain_mem_hits",
	originDisk:  "msa_chain_disk_hits",
	originFresh: "msa_chain_misses",
}

// event is one entry of a job's log; kind says which fields it carries.
// An event holds what happened, never what it costs: the charges every
// view reports are derived from it (msaCharge, infCharge, cacheHit,
// partialMSA).
type event struct {
	kind   eventKind
	origin chainOrigin // evChain
	seq    int         // evDispatch
	// wall is the wall time since submit (evDone, evFailed; record stamps
	// it).
	wall float64
	// phase is the MSA phase (evMSA; evFailed, when the stage failed: its
	// memory verdict and resilience events only).
	phase  *core.MSAPhase
	result *core.PipelineResult // evDone
	batch  *inferenceBatch      // evDone, when a batched dispatch carried the job
	err    error                // evFailed
}

// msaCharge is the modeled MSA time charged to a request: the phase time
// scaled by the fresh-work share. The phase time is cache-independent (the
// determinism contract), but a request whose chains were largely replayed
// only occupies a CPU lane for the work it really added.
func msaCharge(mp *core.MSAPhase) float64 {
	if d := mp.Data; d != nil && d.CachedWork > 0 {
		return mp.Seconds * float64(d.FreshWork) / float64(d.FreshWork+d.CachedWork)
	}
	return mp.Seconds
}

// cacheHit reports a fully cached MSA phase: every chain came from a cache
// tier, and no database was searched on the request's behalf.
func cacheHit(mp *core.MSAPhase) bool {
	d := mp.Data
	return d != nil && d.CachedWork > 0 && d.FreshWork == 0
}

// partialMSA reports a phase run with databases an open breaker skipped.
func partialMSA(mp *core.MSAPhase) bool {
	for _, e := range mp.Resilience.Events {
		if e.Kind == resilience.KindBreakerSkip {
			return true
		}
	}
	return false
}

// infCharge is the modeled inference time charged to a done job: the
// canonical total or, when a batched dispatch carried it, its amortized
// share of the batch total. The batch is priced under the server mutex
// before any member is done, and the caller holds it.
func infCharge(done event) float64 {
	if b := done.batch; b != nil {
		return b.pb.Total() / float64(len(b.jobs))
	}
	return done.result.Inference.Total()
}

// record appends ev to the job's log and reports whether it took: a
// terminal job takes no more events. It is the one place the per-job
// registry counters move and the one place a job turns terminal — the
// counters are added, a job that never reached the batch dispatcher
// leaves upstream, done is closed and pending drops, in that order, so a
// waiter woken by done finds its job in every view.
func (s *Server) record(j *job, ev event) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if terminal(j) {
		return false
	}
	m := s.cfg.Metrics
	if ev.phase != nil {
		for _, e := range ev.phase.Resilience.Events {
			if e.Kind == resilience.KindChainRetry {
				m.Add("msa_chain_retries", 1)
			}
		}
	}
	switch ev.kind {
	case evChain:
		m.Add(originCounter[ev.origin], 1)
	case evMSA:
		if cacheHit(ev.phase) {
			m.Add("msa_cache_hits", 1)
		}
		if partialMSA(ev.phase) {
			m.Add("requests_partial_msa", 1)
		}
	case evHandoff:
		s.preBatch--
	case evDone:
		m.Add("requests_completed", 1)
		if ev.result.Resilience.Degraded {
			m.Add("requests_degraded", 1)
		}
		ev.wall = time.Since(j.submitted).Seconds()
	case evFailed:
		m.Add("requests_failed", 1)
		m.Add("requests_failed_"+ErrorClass(ev.err), 1)
		ev.wall = time.Since(j.submitted).Seconds()
	}
	j.log = append(j.log, ev)
	if !terminal(j) {
		return true
	}
	if _, ok := find(j, evHandoff); !ok && s.batchKick != nil {
		// A job ending before the dispatcher received it can no longer
		// join a batch: release its upstream slot and wake the dispatcher
		// so quiescence sealing is not held hostage by a dead job.
		s.preBatch--
		select {
		case s.batchKick <- struct{}{}:
		default:
		}
	}
	close(j.done)
	s.pending--
	if s.pending == 0 {
		s.idle.Broadcast()
	}
	return true
}

// state folds the log into the job's pipeline position: queued until an
// MSA worker dispatches it, then the stage its last event belongs to.
func state(j *job) State {
	if len(j.log) == 0 {
		return StateQueued
	}
	return stateAfter[j.log[len(j.log)-1].kind]
}

var stateAfter = [...]State{
	evDispatch: StateMSA, evChain: StateMSA, evMSA: StateMSA, evHandoff: StateMSA,
	evInference: StateInference, evDone: StateDone, evFailed: StateFailed,
}

// terminal reports whether the job is done or failed: its log is closed.
func terminal(j *job) bool {
	st := state(j)
	return st == StateDone || st == StateFailed
}

// find returns the job's event of kind k (the zero event if it has none:
// no kind but evChain is logged twice).
func find(j *job, k eventKind) (event, bool) {
	for _, ev := range j.log {
		if ev.kind == k {
			return ev, true
		}
	}
	return event{}, false
}

// msaPhase returns the job's successful MSA phase (nil before one).
func msaPhase(j *job) *core.MSAPhase {
	ev, _ := find(j, evMSA)
	return ev.phase
}

// result returns the job's pipeline result (nil unless done).
func result(j *job) *core.PipelineResult {
	ev, _ := find(j, evDone)
	return ev.result
}

// failure returns the error the job failed with (nil unless failed).
func failure(j *job) error {
	ev, _ := find(j, evFailed)
	return ev.err
}

// status folds the log into the job's status snapshot.
func status(j *job) JobStatus {
	st := JobStatus{ID: j.id, Sample: j.in.Name, State: state(j).String(), Tenant: j.tenant}
	if j.qosLevel > qos.LevelNone {
		st.QoSLevel = j.qosLevel.String()
	}
	var chains [len(originCounter)]int
	var mp *core.MSAPhase
	for _, ev := range j.log {
		switch ev.kind {
		case evChain:
			chains[ev.origin]++
		case evMSA:
			mp = ev.phase
			st.CacheHit = cacheHit(mp)
		case evDone:
			st.MSASeconds = msaCharge(mp)
			st.InferenceSeconds = ev.result.Inference.Total()
			st.ChargedInferenceSeconds = infCharge(ev)
			if b := ev.batch; b != nil {
				st.BatchID, st.BatchSize, st.BucketTokens = b.id, len(b.jobs), b.bucket
			}
			st.Degraded = ev.result.Resilience.Degraded
			st.PartialMSA = partialMSA(mp)
			st.WallMs = ev.wall * 1000
		case evFailed:
			st.WallMs = ev.wall * 1000
		}
	}
	st.ChainsMem, st.ChainsDisk, st.ChainsFresh = chains[originMem], chains[originDisk], chains[originFresh]
	if err := failure(j); err != nil {
		st.Error = err.Error()
		st.ErrorClass = ErrorClass(err)
	}
	return st
}

// completed is a finished job's row: what the modeled schedules and the
// metrics read of it.
type completed struct {
	*job
	// seq is the WFQ dispatch sequence number.
	seq      int
	cacheHit bool
	// msaSeconds and infSeconds are the modeled stage seconds charged to
	// the request; serialSeconds is its unshared cost, the charged MSA
	// seconds plus the canonical inference total.
	msaSeconds, infSeconds, serialSeconds float64
	wallMs                                float64
}

// outcome folds the log of a done job into its completed row.
func outcome(j *job) (completed, bool) {
	if state(j) != StateDone {
		return completed{}, false
	}
	row := completed{job: j}
	for _, ev := range j.log {
		switch ev.kind {
		case evDispatch:
			row.seq = ev.seq
		case evMSA:
			row.cacheHit, row.msaSeconds = cacheHit(ev.phase), msaCharge(ev.phase)
		case evDone:
			row.infSeconds = infCharge(ev)
			row.serialSeconds = row.msaSeconds + ev.result.Inference.Total()
			row.wallMs = ev.wall * 1000
		}
	}
	return row, true
}

// completedLocked returns the row of every done job, in submit order. The
// caller holds s.mu.
func (s *Server) completedLocked() []completed {
	var rows []completed
	for _, j := range s.order {
		if row, ok := outcome(j); ok {
			rows = append(rows, row)
		}
	}
	return rows
}
