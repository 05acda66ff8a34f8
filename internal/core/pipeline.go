package core

import (
	"context"
	"fmt"
	"strings"

	"afsysbench/internal/inputs"
	"afsysbench/internal/memest"
	"afsysbench/internal/msa"
	"afsysbench/internal/platform"
	"afsysbench/internal/resilience"
	"afsysbench/internal/rng"
	"afsysbench/internal/seqdb"
	"afsysbench/internal/simgpu"
	"afsysbench/internal/simhw"
	"afsysbench/internal/simio"
)

// PipelineOptions configure one end-to-end run.
type PipelineOptions struct {
	// Threads is the MSA worker count: the scan shards every database
	// across Threads workers.
	Threads int
	// RunIndex selects the jitter draw for repeat runs.
	RunIndex int
	// WarmStart skips GPU init/XLA compile (persistent model server,
	// Section VI).
	WarmStart bool
	// RecompileShape charges the XLA compile on a warm start whose graph
	// shape (token count, or shape bucket — see internal/batch) has not
	// been compiled in this process: the model stays resident, but a new
	// shape still pays the compiler. Ignored when WarmStart is false —
	// cold starts always compile.
	RecompileShape bool
	// PreloadDBs explicitly loads the run's databases into the page cache
	// before the MSA phase (Section VI storage optimization).
	PreloadDBs bool
	// SkipMemCheck disables the Section VI estimator gate, reproducing
	// stock AF3's behavior of running into the OOM killer.
	SkipMemCheck bool
	// Budget caps modeled per-stage time. MSA exhaustion triggers the
	// degradation ladder; inference exhaustion returns ErrStageTimeout.
	Budget resilience.StageBudget
	// Faults is the injected fault specification for this run (see
	// resilience.ParseFaults). Empty injects nothing.
	Faults resilience.Faults
	// FreshMSA forces the MSA search to recompute instead of consulting the
	// suite's per-profile memo. The serving layer sets it so that
	// internal/cache is the only reuse path between requests — a
	// cache-disabled server really pays the search per request, and a
	// cache-enabled one attributes every skipped search to its own
	// hit counters.
	FreshMSA bool
	// Injector overrides the fault injector built from Faults. The serving
	// layer passes one injector per job so that transient budgets persist
	// across MSA stage retries — a fault consumed by attempt 1 stays
	// consumed, which is what lets a checkpointed retry succeed.
	Injector *resilience.Injector
	// SkipDBs names databases to drop at open time without probing — the
	// serving layer's circuit breakers feed it so a shard known to be dark
	// is skipped instead of re-probed on every request. Each skip is
	// recorded as a KindBreakerSkip degradation event.
	SkipDBs map[string]bool
	// MSACheckpoint preserves completed per-chain search deltas across
	// retries of the MSA phase (scoped by database-profile signature); a
	// retried phase re-runs only the chains that had not finished.
	MSACheckpoint *msa.Checkpoint
	// ChainCache is the serving layer's cross-request per-chain MSA cache
	// hook, threaded down to msa.Options.ChainCache. The scope it receives
	// is the database-profile signature of the plan being run, so a chain
	// searched under a degraded profile never serves the full one.
	ChainCache msa.ChainFetch
	// Scatter is the cluster layer's scatter-gather scan hook, threaded
	// down to msa.Options.Scatter: each database scan is dispatched to
	// simulated shard nodes instead of the in-process thread fan-out. The
	// hook's determinism contract (results bitwise-identical to the local
	// scan) keeps everything downstream — features, metering replay,
	// cache keys — independent of the shard count.
	Scatter msa.ScatterFunc
}

// PipelineResult is the end-to-end outcome for one sample on one machine.
type PipelineResult struct {
	Sample  string
	Machine string
	Threads int

	// MSA phase.
	MSASeconds     float64 // wall time (CPU and disk pipelined)
	MSACPUSeconds  float64
	MSADiskSeconds float64
	DiskUtilPct    float64
	DiskStats      simio.Stats
	MSACPU         simhw.Result
	MSAData        *msa.Result

	// Inference phase.
	Inference simgpu.PhaseBreakdown

	// Memory estimate (Section VI pre-check).
	Memory memest.Estimate

	// Resilience is the retry/degradation accounting: every backoff wait,
	// dropped database and ladder rung taken to finish the run.
	Resilience resilience.Report
}

// TotalSeconds returns end-to-end wall time.
func (p *PipelineResult) TotalSeconds() float64 {
	return p.MSASeconds + p.Inference.Total()
}

// MSAFraction returns the MSA share of the end-to-end time (Figure 7).
func (p *PipelineResult) MSAFraction() float64 {
	t := p.TotalSeconds()
	if t == 0 {
		return 0
	}
	return p.MSASeconds / t
}

// Digest captures everything about a request's outcome that no serving
// tier — cache, disk, shards, replicas — may ever change: the modeled
// phase times bit for bit, the feature bytes and the hit and merge
// counts. The chaos gates compare it against a single-node reference.
func (p *PipelineResult) Digest() string {
	return fmt.Sprintf("%s|%x|%x|%x|%x|%x|%d|%d|%d",
		p.Sample,
		p.MSASeconds, p.MSACPUSeconds, p.MSADiskSeconds,
		p.Inference.ComputeSeconds, p.Inference.Total(),
		p.MSAData.Features.Bytes(),
		p.MSAData.TotalHitResidues, p.MSAData.SerialInstructions)
}

// ErrProjectedOOM is returned when the memory estimator predicts the run
// cannot fit the machine (the failure the paper hit at RNA length 1335).
type ErrProjectedOOM struct {
	Estimate memest.Estimate
}

// Error implements error.
func (e ErrProjectedOOM) Error() string {
	return fmt.Sprintf("core: %s on %s projected to need %.0f GiB (verdict %s)",
		e.Estimate.Input, e.Estimate.Machine,
		float64(e.Estimate.PeakBytes)/(1<<30), e.Estimate.Verdict)
}

// RunPipeline executes the full AF3 pipeline for one sample on one machine
// at one thread count, returning phase times and counters.
func (s *Suite) RunPipeline(in *inputs.Input, mach platform.Machine, opts PipelineOptions) (*PipelineResult, error) {
	return s.RunPipelineCtx(context.Background(), in, mach, opts)
}

// RunPipelineCtx is RunPipeline with cancellation and fault tolerance. The
// context is the wall-clock deadline: it is observed between stages and
// deep inside the MSA scan, and an expiry surfaces as ErrStageTimeout
// wrapping the context error. Injected faults (opts.Faults) are absorbed
// where possible: transient read failures retry (resilience.MaxAttempts) with
// deterministic jittered backoff, and a database that stays dark — or an
// MSA plan that cannot fit opts.Budget — degrades the run down the ladder
// (drop the database, then single-sequence inference) instead of failing
// it. Everything taken is recorded in the result's Resilience report.
//
// The run is the composition of the two phase entry points — RunMSAPhase
// and RunInferencePhase — which the serving subsystem (internal/serve)
// also calls individually to run the phases on separate worker pools.
func (s *Suite) RunPipelineCtx(ctx context.Context, in *inputs.Input, mach platform.Machine, opts PipelineOptions) (*PipelineResult, error) {
	if opts.Threads <= 0 {
		opts.Threads = 8
	}
	mp, err := s.RunMSAPhase(ctx, in, mach, opts)
	if err != nil {
		return nil, err
	}
	pb, err := s.RunInferencePhase(ctx, in, mach, opts)
	if err != nil {
		return nil, err
	}
	return ComposeResult(in, mach, opts.Threads, mp, pb), nil
}

// MSAPhase is the outcome of the pipeline's first phase in isolation: the
// search result and features, the modeled phase times, the storage counters
// and the resilience accounting accrued while planning the stage. The
// serving subsystem runs the two phases on separate worker pools and keeps
// this value in its content-addressed cache; RunPipelineCtx composes the
// phases back into the classic single-run result.
type MSAPhase struct {
	// Memory is the Section VI pre-check verdict for the run.
	Memory memest.Estimate
	// Data is the search outcome: alignments, features, streamed bytes.
	Data *msa.Result
	// CPU is the machine-model replay of the scan (Table IV counters).
	CPU simhw.Result
	// CPUSeconds, DiskSeconds and Seconds are the modeled phase times:
	// compute, disk busy, and the pipelined wall time that bounds them.
	CPUSeconds  float64
	DiskSeconds float64
	Seconds     float64
	DiskUtilPct float64
	DiskStats   simio.Stats
	// Resilience is the retry/degradation accounting of the phase.
	Resilience resilience.Report
}

// RunMSAPhase executes only the MSA phase for one sample on one machine:
// the Section VI memory gate, database opening under the retry policy, and
// the degradation-ladder planning loop. Every call builds its own
// *MSAPhase — the serving cache works a level down, on chains
// (opts.ChainCache), and its Data.Workers are credited from the per-record
// sums of whatever chain deltas were replayed into it, cached ones
// included. The phase shares those deltas with other requests', so it is
// read-only.
func (s *Suite) RunMSAPhase(ctx context.Context, in *inputs.Input, mach platform.Machine, opts PipelineOptions) (*MSAPhase, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Threads <= 0 {
		opts.Threads = 8
	}
	mp := &MSAPhase{}

	// Section VI static pre-check.
	mp.Memory = memVerdict(in, mach, opts.Threads)
	if mp.Memory.Verdict == memest.OOM && !opts.SkipMemCheck {
		return nil, ErrProjectedOOM{Estimate: mp.Memory}
	}

	inj := opts.Injector
	if inj == nil {
		inj = resilience.NewInjector(opts.Faults, s.resilienceSource(in.Name, opts.RunIndex))
	}

	storage := newStorage(in, mach, opts.Threads)
	if inj != nil {
		storage.SetFaultFunc(func(name string, attempt int, _ int64) error {
			return inj.ReadFault(name, attempt)
		})
		defer storage.SetFaultFunc(nil)
	}

	// Open the databases under the retry policy, then plan the stage down
	// the degradation ladder until it fits.
	needed := s.neededDBs(in)
	active := s.openDatabases(needed, opts.SkipDBs, inj, &mp.Resilience)
	if err := s.runMSAStage(ctx, in, mach, opts, storage, active, needed, inj, mp); err != nil {
		return nil, err
	}
	return mp, nil
}

// RunInferencePhase executes only the inference phase: XLA compile replay
// on the host model, the roofline-priced GPU run, and the inference budget
// gate. It is independent of the MSA phase output — AF3 inference consumes
// the features, but the timing model depends only on token count — which
// is what lets the serving scheduler start it the moment a cached MSA
// phase is fetched.
func (s *Suite) RunInferencePhase(ctx context.Context, in *inputs.Input, mach platform.Machine, opts PipelineOptions) (simgpu.PhaseBreakdown, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Threads <= 0 {
		opts.Threads = 8
	}
	if err := ctx.Err(); err != nil {
		return simgpu.PhaseBreakdown{}, resilience.ErrStageTimeout{Stage: "inference", Cause: err}
	}
	host, err := s.CompileSim(mach, in.TotalResidues())
	if err != nil {
		return simgpu.PhaseBreakdown{}, err
	}
	pb, err := simgpu.Inference(mach, s.Model, in.TotalResidues(), simgpu.InferenceOptions{
		Threads:        opts.Threads,
		WarmStart:      opts.WarmStart,
		Recompile:      opts.RecompileShape,
		CompileSeconds: host.CompileSeconds,
	})
	if err != nil {
		return simgpu.PhaseBreakdown{}, err
	}
	j := s.jitter(in.Name+"/inf", opts.RunIndex, 0.003)
	pb.ComputeSeconds *= j
	if b := opts.Budget.InferenceSeconds; b > 0 && pb.Total() > b {
		return simgpu.PhaseBreakdown{}, resilience.ErrStageTimeout{
			Stage:         "inference",
			BudgetSeconds: b,
			NeedSeconds:   pb.Total(),
		}
	}
	return pb, nil
}

// ComposeResult assembles the classic end-to-end result from the two phase
// outcomes. threads is the request's worker-count setting (recorded, not
// re-derived, so a cached MSA phase composed with a fresh inference keeps
// the submitting request's setting).
func ComposeResult(in *inputs.Input, mach platform.Machine, threads int, mp *MSAPhase, pb simgpu.PhaseBreakdown) *PipelineResult {
	return &PipelineResult{
		Sample:         in.Name,
		Machine:        mach.Name,
		Threads:        threads,
		MSASeconds:     mp.Seconds,
		MSACPUSeconds:  mp.CPUSeconds,
		MSADiskSeconds: mp.DiskSeconds,
		DiskUtilPct:    mp.DiskUtilPct,
		DiskStats:      mp.DiskStats,
		MSACPU:         mp.CPU,
		MSAData:        mp.Data,
		Inference:      pb,
		Memory:         mp.Memory,
		Resilience:     mp.Resilience,
	}
}

// runMSAStage plans and commits the MSA phase. Each ladder iteration costs
// one candidate database profile — real searches (cached per profile),
// the machine-model replay, and a streaming trial on a page-cache clone —
// and either accepts it or sheds a database and re-plans. Rejected plans
// leave the live storage untouched; the accepted plan is replayed on it.
func (s *Suite) runMSAStage(ctx context.Context, in *inputs.Input, mach platform.Machine, opts PipelineOptions, storage *simio.System, active []*seqdb.DB, needed map[string]bool, inj *resilience.Injector, mp *MSAPhase) error {
	rep := &mp.Resilience
	if opts.PreloadDBs {
		s.preload(storage, active)
	}
	hooks := msa.Options{
		Checkpoint: opts.MSACheckpoint,
		ChainFault: inj.ChainFault,
		ChainCache: opts.ChainCache,
		Scatter:    opts.Scatter,
	}
	for {
		if err := ctx.Err(); err != nil {
			return resilience.ErrStageTimeout{Stage: "msa", Cause: err}
		}
		// Chain faults and checkpoints make the search attempt-dependent:
		// the memo must not absorb (or replay around) either.
		fresh := opts.FreshMSA || opts.MSACheckpoint != nil || inj.HasChainFaults() || opts.ChainCache != nil || opts.Scatter != nil
		view, err := s.msaResultFor(ctx, in, opts.Threads, s.reducedDBSet(active), s.dbSignature(active), fresh, hooks)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return resilience.ErrStageTimeout{Stage: "msa", Cause: ctxErr}
			}
			return err
		}
		msaRes := view.res
		cpuSim := s.replay(view, mach)
		cpu := cpuSim.Seconds * s.jitter(in.Name, opts.RunIndex, 0.02)
		stall := inj.StallSeconds()

		// Cost the candidate on a clone so a rejected plan cannot disturb
		// the live page cache; trial-side events are discarded (the accepted
		// plan's replay records them once, identically).
		scratch := &resilience.Report{}
		disk, ceiling, err := s.streamDatabases(ctx, storage.Clone(), msaRes, active, mach, inj, scratch)
		if err != nil {
			return err
		}
		if ceiling {
			rep.Degraded = true
			rep.Record(resilience.Event{
				Stage: "stream", Kind: resilience.KindMemCeiling,
				Detail: fmt.Sprintf("anonymous-memory spike would breach the machine's %d GiB; abandoning the deep MSA", mach.TotalMemBytes()>>30),
			})
			active = dropNeeded(active, needed, rep)
			continue
		}
		wall := cpu + stall
		if disk > wall {
			wall = disk
		}
		wall += rep.RetrySeconds
		if b := opts.Budget.MSASeconds; b > 0 && wall > b {
			if victim := largestStreamed(active, needed, msaRes); victim != "" {
				active = removeDB(active, victim)
				rep.DroppedDBs = append(rep.DroppedDBs, victim)
				rep.Degraded = true
				rep.Record(resilience.Event{
					Stage: "msa", Kind: resilience.KindBudgetDrop, DB: victim,
					Detail: fmt.Sprintf("plan needs %.0fs against a %.0fs budget; shedding the largest stream", wall, b),
				})
				continue
			}
			rep.Record(resilience.Event{
				Stage: "msa", Kind: resilience.KindBudgetOverrun, Seconds: wall - b,
				Detail: fmt.Sprintf("single-sequence floor still needs %.0fs against a %.0fs budget", wall, b),
			})
		}

		// Accept: commit the plan to the live storage.
		if stall > 0 {
			rep.Record(resilience.Event{
				Stage: "msa", Kind: resilience.KindStall, Seconds: stall,
				Detail: "worker shard stalled; scan critical path extended",
			})
		}
		disk, _, err = s.streamDatabases(ctx, storage, msaRes, active, mach, inj, rep)
		if err != nil {
			return err
		}
		if len(needed) > 0 && countNeeded(active, needed) == 0 {
			rep.SingleSequence = true
			rep.Degraded = true
			rep.Record(resilience.Event{
				Stage: "msa", Kind: resilience.KindSingleSequence,
				Detail: "no databases available; inference proceeds on single-sequence features",
			})
		}
		mp.Data = msaRes
		mp.CPU = cpuSim
		mp.CPUSeconds = cpu
		mp.DiskSeconds = disk
		// The scan pipeline overlaps compute with NVMe streaming; whichever
		// side is slower bounds the phase (Section V-B2c: the desktop's disk
		// runs at 100% utilization without degrading the pipeline). Backoff
		// waits overlap neither and are charged on top.
		mp.Seconds = cpu + stall
		if disk > mp.Seconds {
			mp.Seconds = disk
		}
		mp.Seconds += rep.RetrySeconds
		mp.DiskUtilPct = simio.UtilizationPct(disk, mp.Seconds)
		mp.DiskStats = storage.Stats()
		return nil
	}
}

// NeededDBs returns the names of the databases the input's chains search —
// the serving layer consults it to feed per-database circuit breakers
// (a request that finished without dropping a needed database counts as a
// success for each one it searched).
func (s *Suite) NeededDBs(in *inputs.Input) map[string]bool {
	return s.neededDBs(in)
}

// neededDBs returns the names of the databases the input's chains search.
func (s *Suite) neededDBs(in *inputs.Input) map[string]bool {
	needed := make(map[string]bool)
	for _, c := range in.MSAChains() {
		for _, db := range s.DBs.For(c.Sequence.Type) {
			needed[db.Name] = true
		}
	}
	return needed
}

// openDatabases probes every database the input needs under the retry
// policy, consuming injected faults at open time so each database is either
// fully available to the scan or dropped before it starts. Databases the
// input never searches pass through unprobed; databases in skip (the
// serving layer's open circuit breakers) are dropped without probing.
func (s *Suite) openDatabases(needed, skip map[string]bool, inj *resilience.Injector, rep *resilience.Report) []*seqdb.DB {
	if inj == nil && len(skip) == 0 {
		return s.allDBs()
	}
	var active []*seqdb.DB
	for _, db := range s.allDBs() {
		if !needed[db.Name] {
			active = append(active, db)
			continue
		}
		if skip[db.Name] {
			rep.DroppedDBs = append(rep.DroppedDBs, db.Name)
			rep.Degraded = true
			rep.Record(resilience.Event{
				Stage: "msa", Kind: resilience.KindBreakerSkip, DB: db.Name,
				Detail: "circuit breaker open; database skipped without probing",
			})
			continue
		}
		var bo *rng.Source
		var lastErr error
		attempts := 0
		for attempt := 1; attempt <= resilience.MaxAttempts; attempt++ {
			attempts = attempt
			err := inj.ReadFault(db.Name, attempt)
			if err == nil {
				lastErr = nil
				break
			}
			lastErr = err
			if resilience.IsPermanent(err) || attempt == resilience.MaxAttempts {
				break
			}
			if bo == nil {
				bo = inj.BackoffSource(db.Name)
			}
			d := resilience.Backoff(attempt, bo)
			rep.Retries++
			rep.RetrySeconds += d
			rep.Record(resilience.Event{
				Stage: "msa", Kind: resilience.KindRetry, DB: db.Name, Seconds: d,
				Detail: fmt.Sprintf("open attempt %d failed; backing off", attempt),
			})
		}
		if lastErr == nil {
			active = append(active, db)
			continue
		}
		rep.DroppedDBs = append(rep.DroppedDBs, db.Name)
		rep.Degraded = true
		cause := resilience.ErrDBUnavailable{DB: db.Name, Attempts: attempts, Cause: lastErr}
		rep.Record(resilience.Event{
			Stage: "msa", Kind: resilience.KindDropDB, DB: db.Name,
			Detail: cause.Error(),
		})
	}
	return active
}

// streamDatabases plays every recorded database pass through the storage
// model, returning total disk busy seconds. The per-database total replays
// as full passes of the modeled size plus one final partial pass for the
// remainder, so cache hits between passes count and no streamed bytes are
// dropped. Mid-stream faults retry under the policy; memory spikes fire
// between databases, and a spike past the machine's capacity reports
// ceiling=true with the stream abandoned.
func (s *Suite) streamDatabases(ctx context.Context, storage *simio.System, msaRes *msa.Result, active []*seqdb.DB, mach platform.Machine, inj *resilience.Injector, rep *resilience.Report) (float64, bool, error) {
	var disk float64
	streamed := 0
	for _, db := range active {
		total := msaRes.Streamed[db.Name]
		if total == 0 {
			continue
		}
		per := db.ModeledBytes()
		for off := int64(0); off < total; off += per {
			if err := ctx.Err(); err != nil {
				return disk, false, resilience.ErrStageTimeout{Stage: "msa", Cause: err}
			}
			size := per
			if rem := total - off; rem < per {
				size = rem // the final partial pass
			}
			sec, dead := s.streamPass(storage, db.Name, size, inj, rep)
			disk += sec
			if dead {
				break
			}
		}
		if spike := inj.MemSpike(streamed); spike > 0 {
			storage.SetReserved(storage.Reserved() + spike)
			if storage.Reserved() > mach.TotalMemBytes() {
				return disk, true, nil
			}
			rep.Record(resilience.Event{
				Stage: "stream", Kind: resilience.KindMemSpike,
				Detail: fmt.Sprintf("anonymous memory +%d GiB; later passes squeeze the page cache", spike>>30),
			})
		}
		streamed++
	}
	return disk, false, nil
}

// streamPass is one pass of one database through the storage model under
// the retry policy. Mid-stream faults are rare — open-time probing consumes
// the injected budgets — but a database can still go dark here; the pass
// then records the drop and returns dead=true so the caller stops replaying
// it (its hits are already recruited; only the remaining re-reads vanish).
func (s *Suite) streamPass(storage *simio.System, name string, bytes int64, inj *resilience.Injector, rep *resilience.Report) (float64, bool) {
	var sec float64
	var bo *rng.Source
	for attempt := 1; ; attempt++ {
		r, err := storage.TryReadSequential(name, bytes)
		sec += r.DiskSeconds
		if err == nil {
			return sec, false
		}
		if resilience.IsPermanent(err) || attempt >= resilience.MaxAttempts {
			rep.DroppedDBs = append(rep.DroppedDBs, name)
			rep.Degraded = true
			cause := resilience.ErrDBUnavailable{DB: name, Attempts: attempt, Cause: err}
			rep.Record(resilience.Event{
				Stage: "stream", Kind: resilience.KindDropDB, DB: name,
				Detail: cause.Error(),
			})
			return sec, true
		}
		if bo == nil {
			bo = inj.BackoffSource(name)
		}
		d := resilience.Backoff(attempt, bo)
		rep.Retries++
		rep.RetrySeconds += d
		rep.Record(resilience.Event{
			Stage: "stream", Kind: resilience.KindRetry, DB: name, Seconds: d,
			Detail: fmt.Sprintf("read attempt %d failed; backing off", attempt),
		})
	}
}

// reducedDBSet filters the suite's databases to the active set, preserving
// catalog order and the databases' reader lanes.
func (s *Suite) reducedDBSet(active []*seqdb.DB) *msa.DBSet {
	on := make(map[string]bool, len(active))
	for _, db := range active {
		on[db.Name] = true
	}
	return s.DBs.Keep(func(db *seqdb.DB) bool { return on[db.Name] })
}

// dbSignature names a database profile for the MSA result cache.
func (s *Suite) dbSignature(active []*seqdb.DB) string {
	if len(active) == len(s.DBs.Protein)+len(s.DBs.RNA) {
		return "full"
	}
	if len(active) == 0 {
		return "none"
	}
	names := make([]string, len(active))
	for i, db := range active {
		names[i] = db.Name
	}
	return strings.Join(names, "+")
}

// removeDB returns dbs without the named database, order preserved.
func removeDB(dbs []*seqdb.DB, name string) []*seqdb.DB {
	out := make([]*seqdb.DB, 0, len(dbs))
	for _, db := range dbs {
		if db.Name != name {
			out = append(out, db)
		}
	}
	return out
}

// dropNeeded removes every database the input searches — the memory-ceiling
// response: the deep MSA is abandoned wholesale rather than letting the OOM
// killer pick a victim mid-stream.
func dropNeeded(dbs []*seqdb.DB, needed map[string]bool, rep *resilience.Report) []*seqdb.DB {
	out := make([]*seqdb.DB, 0, len(dbs))
	for _, db := range dbs {
		if needed[db.Name] {
			rep.DroppedDBs = append(rep.DroppedDBs, db.Name)
			continue
		}
		out = append(out, db)
	}
	return out
}

// countNeeded counts active databases the input actually searches.
func countNeeded(dbs []*seqdb.DB, needed map[string]bool) int {
	n := 0
	for _, db := range dbs {
		if needed[db.Name] {
			n++
		}
	}
	return n
}

// largestStreamed picks the budget ladder's victim: the active database
// with the most streamed bytes (catalog order breaks ties). Empty string
// when nothing is left to shed.
func largestStreamed(dbs []*seqdb.DB, needed map[string]bool, msaRes *msa.Result) string {
	var name string
	var best int64
	for _, db := range dbs {
		if !needed[db.Name] {
			continue
		}
		if b := msaRes.Streamed[db.Name]; b > best {
			best, name = b, db.Name
		}
	}
	return name
}

// preload fetches the run's databases into the page cache (Section VI).
func (s *Suite) preload(storage *simio.System, dbs []*seqdb.DB) {
	for _, db := range dbs {
		storage.Preload(db.Name, db.ModeledBytes())
	}
}

// allDBs returns protein then RNA databases in catalog order.
func (s *Suite) allDBs() []*seqdb.DB {
	out := make([]*seqdb.DB, 0, len(s.DBs.Protein)+len(s.DBs.RNA))
	out = append(out, s.DBs.Protein...)
	out = append(out, s.DBs.RNA...)
	return out
}
