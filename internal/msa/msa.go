package msa

import (
	"context"
	"fmt"
	"time"

	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
	"afsysbench/internal/parallel"
	"afsysbench/internal/seq"
	"afsysbench/internal/seqdb"
)

// Options configures one MSA phase run.
type Options struct {
	// Threads is the worker count (the paper sweeps 1–8; AF3 defaults
	// to 8).
	Threads int
	// Rounds is the jackhmmer iteration count for protein chains
	// (default 2). RNA chains always scan once (nhmmer).
	Rounds int
	// Search carries engine options shared by all searches. Its TraceE is
	// not the caller's to set: the chain loop sets it per round (runChain).
	Search hmmer.SearchOptions
	// DBs are the reference databases.
	DBs *DBSet
	// AllowMissingDB lets a chain whose molecule type has no databases
	// left proceed as a single-sequence alignment (depth 1, no hits)
	// instead of failing the run — the degradation ladder's contract when
	// databases have been dropped from the profile.
	AllowMissingDB bool
	// Checkpoint, when non-nil, makes the run resumable: chains completed
	// by a previous attempt are replayed from their recorded deltas
	// instead of re-searched, and every chain completed in this run is
	// recorded as it finishes — even when a later chain fails. A stage
	// retry therefore re-runs only failed chains.
	Checkpoint *Checkpoint
	// CheckpointScope names the database profile the run searches (the
	// degradation ladder's signature). Checkpoint entries are keyed by it
	// so a re-plan against a reduced profile never replays a delta
	// computed against a different one.
	CheckpointScope string
	// ChainCache, when set, is the serving layer's cross-request chain
	// cache: consulted once per chain after the per-request Checkpoint,
	// with the CheckpointScope and a compute closure running the real
	// search. A hit merges the cached delta (byte-identical to a fresh
	// search, with the chain label rewritten for this complex) and counts
	// into CachedChains/CachedWork instead of FreshWork. ChainDone observes
	// only real searches, mirroring Checkpoint replay semantics.
	ChainCache ChainFetch
	// ChainFault, when set, is consulted at the start of every chain
	// search with the chain id and the attempt ordinal (always 1: a stage
	// retry is a new run, and completed chains replay from the
	// checkpoint); a non-nil error fails that chain. It is the
	// chain-granular fault-injection hook for the serving layer's chaos
	// and robustness tests.
	ChainFault func(chainID string, attempt int) error
	// ChainDone, when set, observes every chain completed by a real
	// search (not a checkpoint replay) with its wall-clock duration. Only
	// the repo benchmark sets it (bench/layers.go, msa.chain_ms_p50/p90).
	ChainDone func(chainID string, wall time.Duration)
	// Scatter, when set, replaces the in-process per-thread sharded scan
	// of each database — the cluster layer's scatter-gather hook. The
	// implementation must honor the determinism contract: the merged
	// result, including per-worker metering attribution, must be
	// bitwise-identical to the default scanParallel at the same Threads
	// setting, so shard count can never change what a request computes.
	Scatter ScatterFunc
}

// ScatterRequest is one database scan handed to a Scatter hook: everything
// scanParallel would have used, plus the metering scale and the per-worker
// accumulators the hook must attribute events to. Workers has exactly
// Threads entries; worker w owns the records of the global thread split
// parallel.Shards would give it, and its events must append in record
// order — that is what keeps a scattered scan bitwise-identical to the
// single-node one.
type ScatterRequest struct {
	Profile *hmmer.Profile
	Query   *seq.Sequence
	DB      *seqdb.DB
	// Search carries the engine options with DBFootprint already set to
	// the database's modeled size.
	Search hmmer.SearchOptions
	// Threads is the global worker count the scan is attributed across.
	Threads int
	// ScaleFactor is the synthetic-to-paper metering scale for this
	// database (DB.ScaleFactor × workCalibration); every shard's events
	// must be scaled by it before accumulation.
	ScaleFactor float64
	// Workers are the per-thread accumulators (len == Threads).
	Workers []*metering.Accumulator
}

// ScatterFunc scatter-gathers one database scan across simulated nodes.
type ScatterFunc func(ctx context.Context, req ScatterRequest) (*hmmer.Result, error)

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = 8 // AF3's fixed default, which the paper questions
	}
	if o.Rounds <= 0 {
		o.Rounds = 2
	}
	return o
}

// workCalibration scales the synthetic-to-paper work mapping. It is the one
// free constant of the MSA volume model, set so the simulated 2PV7 MSA phase
// lands at the paper's Figure 3 scale.
const workCalibration = 0.4

// ChainResult summarizes one chain's searches.
type ChainResult struct {
	ChainID    string
	Type       seq.MoleculeType
	Hits       int
	Candidates int
	Scanned    int
	// CellsDP counts banded-Viterbi DP cells actually evaluated across all
	// rounds and shards; CellsPruned counts the band cells the row-max
	// cutoff provably skipped (see hmmer.Result).
	CellsDP     uint64
	CellsPruned uint64
	// Rows is the recruited alignment depth (including the query row).
	Rows int
	// HitResidues is the summed length of recruited hits, which feeds the
	// shared hot-set model (bigger recruited stacks = more shared reuse).
	HitResidues int
}

// Result is the outcome of the MSA phase for one input.
type Result struct {
	Input    *inputs.Input
	PerChain []ChainResult
	Features *Features
	// Workers holds per-thread metering accumulators (scaled to paper
	// volume); index = worker id. Each is linked from the chains' deltas
	// in chain order and shares their events — with the checkpoint, the
	// serving cache and every other result the same chains were replayed
	// into — so it is read-only: consume it through Totals, ByFunc, Len
	// or Flat. Events alone is only the first contributing chain's run.
	Workers []*metering.Accumulator
	// SerialInstructions is the modeled non-parallel work (profile
	// rebuilds, hit merging, feature assembly) at paper scale.
	SerialInstructions uint64
	// Streamed maps database name to total modeled bytes scanned (passes
	// × modeled size) — the storage model's input.
	Streamed map[string]int64
	// TotalHitResidues sums HitResidues over chains.
	TotalHitResidues int
	// Pairing is the cross-chain species-pairing outcome (empty for
	// single-chain inputs).
	Pairing *PairingResult
	// RestoredChains counts chains replayed from the checkpoint instead
	// of re-searched — an operational counter, excluded from determinism
	// comparisons.
	RestoredChains int
	// CachedChains counts chains served by the ChainCache hook; FreshWork
	// and CachedWork split the modeled instructions between really-searched
	// and cache-served chains (their sum is cache-independent; the split is
	// operational, excluded from determinism comparisons). The serving
	// layer charges MSA seconds by the fresh share.
	CachedChains int
	FreshWork    uint64
	CachedWork   uint64
}

// Run executes the MSA phase for the input: for every protein/RNA chain,
// search the matching databases with Threads workers sharding each
// database, iterating protein profiles Rounds times.
func Run(in *inputs.Input, opts Options) (*Result, error) {
	return RunCtx(context.Background(), in, opts)
}

// RunCtx is Run with cancellation: the context is observed between chains,
// between iteration rounds, between databases, and every few records
// inside each worker shard, so a cancelled MSA phase stops within one
// shard's stride rather than finishing the fan-out.
func RunCtx(ctx context.Context, in *inputs.Input, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.DBs == nil {
		return nil, fmt.Errorf("msa: no databases configured")
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Input:    in,
		Workers:  make([]*metering.Accumulator, opts.Threads),
		Streamed: make(map[string]int64),
	}
	for i := range res.Workers {
		res.Workers[i] = &metering.Accumulator{}
	}

	// runFresh is a chain's real search, whichever arm below asks for it:
	// ChainDone observes it and nothing else.
	runFresh := func(chain inputs.Chain) (*chainDelta, error) {
		start := time.Now()
		d, err := runChain(ctx, chain, opts)
		if err != nil {
			return nil, err
		}
		if opts.ChainDone != nil {
			opts.ChainDone(chain.IDs[0], time.Since(start))
		}
		return d, nil
	}

	var perChainHits [][]hmmer.Hit
	for _, chain := range in.MSAChains() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cid := chain.IDs[0]
		if d := opts.Checkpoint.lookup(opts.CheckpointScope, cid); d != nil {
			res.RestoredChains++
			res.FreshWork += deltaWork(d)
			res.merge(d)
			perChainHits = append(perChainHits, d.hits)
			continue
		}
		if opts.ChainCache != nil {
			cc, hit, err := opts.ChainCache(opts.CheckpointScope, chain, func() (*CachedChain, error) {
				d, err := runFresh(chain)
				if err != nil {
					return nil, err
				}
				return newCachedChain(d), nil
			})
			if err != nil {
				return nil, fmt.Errorf("msa %s chain %s: %w", in.Name, cid, err)
			}
			if hit {
				res.CachedChains++
				res.CachedWork += cc.Work()
			} else {
				res.FreshWork += cc.Work()
			}
			d := cc.deltaFor(cid)
			opts.Checkpoint.store(opts.CheckpointScope, cid, d)
			res.merge(d)
			perChainHits = append(perChainHits, d.hits)
			continue
		}
		d, err := runFresh(chain)
		if err != nil {
			return nil, fmt.Errorf("msa %s chain %s: %w", in.Name, cid, err)
		}
		opts.Checkpoint.store(opts.CheckpointScope, cid, d)
		res.FreshWork += deltaWork(d)
		res.merge(d)
		perChainHits = append(perChainHits, d.hits)
	}
	// Cross-chain species pairing (serial, between search and features).
	res.Pairing = pairChains(perChainHits)
	totalHits := 0
	for _, hits := range perChainHits {
		totalHits += len(hits)
	}
	res.SerialInstructions += uint64(totalHits) * 3000 // paired-row assembly

	res.Features = buildFeatures(in, res.PerChain)
	res.Features.PairedRows = len(res.Pairing.Rows)
	// Feature assembly is serial: stacking, deduplication, pairing.
	res.SerialInstructions += uint64(res.Features.Rows*res.Features.Cols) * 40
	return res, nil
}

// runChain searches all matching databases for one chain, computing its
// full contribution — summary row, final-round hits, metering events,
// streamed bytes, serial work — into a private delta. Nothing shared is
// touched until the caller merges the delta, so replayed attempts
// (checkpoints) are safe by construction.
func runChain(ctx context.Context, chain inputs.Chain, opts Options) (*chainDelta, error) {
	query := chain.Sequence
	cid := chain.IDs[0]
	if opts.ChainFault != nil {
		if err := opts.ChainFault(cid, 1); err != nil {
			return nil, err
		}
	}
	// Private scratch carrier: scanParallel and the serial-work bookkeeping
	// below write here, never into the caller's Result.
	scratch := &Result{
		Workers:  make([]*metering.Accumulator, opts.Threads),
		Streamed: make(map[string]int64),
	}
	for i := range scratch.Workers {
		scratch.Workers[i] = &metering.Accumulator{}
	}
	res := scratch
	cr := ChainResult{ChainID: cid, Type: query.Type}
	finish := func(hits []hmmer.Hit) *chainDelta {
		return &chainDelta{
			cr:       cr,
			hits:     hits,
			workers:  scratch.Workers,
			streamed: scratch.Streamed,
			serial:   scratch.SerialInstructions,
		}
	}
	dbs := opts.DBs.For(query.Type)
	if len(dbs) == 0 {
		if opts.AllowMissingDB {
			// Degraded profile: the chain proceeds with only its own
			// sequence (alignment depth 1, nothing scanned or streamed).
			cr.Rows = 1
			return finish(nil), nil
		}
		return nil, fmt.Errorf("no databases for molecule type %v", query.Type)
	}
	rounds := opts.Rounds
	if query.Type != seq.Protein {
		rounds = 1 // nhmmer is single-pass
	}

	profile, err := hmmer.BuildFromQuery(query)
	if err != nil {
		return nil, err
	}
	var lastHits []hmmer.Hit
	for round := 0; round < rounds; round++ {
		// Who reads a hit's alignment: the profile rebuild after a
		// recruiting round, for hits at or below InclusionE; after the last
		// round (a nucleotide chain's only one) nobody, and a cached chain
		// would carry it into every replay.
		opts.Search.TraceE = hmmer.TraceNone
		if round < rounds-1 {
			opts.Search.TraceE = hmmer.InclusionE
		}
		var allHits []hmmer.Hit
		for _, db := range dbs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			merged, err := scanParallel(ctx, profile, query, db, opts, res)
			if err != nil {
				return nil, err
			}
			res.Streamed[db.Name] += db.ModeledBytes()
			allHits = append(allHits, merged.Hits...)
			cr.Candidates += merged.Candidates
			cr.Scanned += merged.Scanned
			cr.CellsDP += merged.CellsDP
			cr.CellsPruned += merged.CellsPruned
		}
		lastHits = allHits
		if round == rounds-1 {
			break
		}
		rows := hmmer.BuildHitAlignment(query, allHits, hmmer.InclusionE)
		// Profile rebuild is serial work between rounds; model it at the
		// paper-scale recruited depth.
		res.SerialInstructions += uint64(len(rows)*query.Len()) * 600
		if len(rows) <= 1 {
			break
		}
		profile, err = hmmer.BuildFromAlignment(query.ID, query.Type, rows)
		if err != nil {
			return nil, err
		}
	}
	cr.Hits = len(lastHits)
	cr.Rows = 1
	for _, h := range lastHits {
		cr.HitResidues += h.Target.Len()
		if h.EValue <= hmmer.InclusionE {
			cr.Rows++
		}
	}
	// Merging and E-value sorting of the paper-scale hit list is serial.
	res.SerialInstructions += uint64(cr.HitResidues) * 1200
	return finish(lastHits), nil
}

// scanParallel scans one database with the chain's current profile: through
// the Scatter hook when one is set, in process (scanShards) otherwise.
func scanParallel(ctx context.Context, profile *hmmer.Profile, query *seq.Sequence, db *seqdb.DB, opts Options, res *Result) (*hmmer.Result, error) {
	searchOpts := opts.Search
	searchOpts.DBFootprint = uint64(db.ModeledBytes())
	scatter := opts.Scatter
	if scatter == nil {
		scatter = scanShards
	}
	return scatter(ctx, ScatterRequest{
		Profile:     profile,
		Query:       query,
		DB:          db,
		Search:      searchOpts,
		Threads:     opts.Threads,
		ScaleFactor: db.ScaleFactor * workCalibration,
		Workers:     res.Workers,
	})
}

// scanShards is the in-process ScatterFunc: it shards the database across
// the workers, scanning concurrently — the analog of HMMER's worker threads
// consuming reader blocks. Each worker's metering events are scaled by the
// database's synthetic-to-paper factor before accumulation. parallel.Shards
// is used (not a capped Pool.Run) because the shard count is semantic here:
// shard w's events must land in Workers[w] for per-thread attribution, even
// when Threads exceeds the machine's core count.
//
// Scratch reuse: each shard's scan draws a scanWorkspace from the hmmer
// package's sync.Pool for the duration of its pass, so the DP rows,
// Forward rows and seed scratch are allocated once per worker per database —
// not once per record — and successive databases reuse the buffers the
// previous pass grew.
func scanShards(ctx context.Context, req ScatterRequest) (*hmmer.Result, error) {
	db := req.DB
	parts := make([]*hmmer.Result, req.Threads)
	errs := make([]error, req.Threads)
	ctxErr := parallel.ShardsCtx(ctx, req.Threads, len(db.Seqs), func(w, lo, hi int) {
		meter := metering.Scaled(req.Workers[w], req.ScaleFactor)
		src := &hmmer.SliceSource{Seqs: db.Seqs[lo:hi]}
		parts[w], errs[w] = hmmer.ScanRecordsCtx(ctx, req.Profile, req.Query, src, db.TotalResidues(), req.Search, meter)
	})
	if ctxErr != nil {
		return nil, ctxErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return hmmer.MergeResults(req.Query.ID, parts), nil
}

// Features is the stacked MSA representation of shape (M × N × d): M
// alignment rows over N total residue columns; d is the one-hot feature
// width (alphabet size plus gap).
type Features struct {
	Rows int // M
	Cols int // N: total residues across chains
	// FeatureDim is d: protein alphabet + gap marker.
	FeatureDim int
	// RowsPerChain maps chain id to recruited depth.
	RowsPerChain map[string]int
	// PairedRows is the number of cross-chain species-paired rows.
	PairedRows int
}

// Bytes returns the dense feature tensor size (M×N×d single bytes).
func (f *Features) Bytes() int64 {
	return int64(f.Rows) * int64(f.Cols) * int64(f.FeatureDim)
}

func buildFeatures(in *inputs.Input, chains []ChainResult) *Features {
	f := &Features{
		Cols:         in.TotalResidues(),
		FeatureDim:   len(seq.ProteinAlphabet) + 1,
		RowsPerChain: make(map[string]int),
	}
	// The stacked MSA depth is the deepest chain alignment; shallower
	// chains are padded (AF3 pads per-chain MSAs into one block).
	for _, c := range chains {
		f.RowsPerChain[c.ChainID] = c.Rows
		if c.Rows > f.Rows {
			f.Rows = c.Rows
		}
	}
	if f.Rows == 0 {
		f.Rows = 1
	}
	return f
}
