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
	// Threads is the worker count the result's metering is attributed
	// across (the paper sweeps 1–8; AF3 defaults to 8). It is not the
	// search's concurrency: a scan fans out over at most one span per core,
	// and what it found is the same at every count.
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
	// Scatter, when set, replaces the in-process scan of each database —
	// the cluster layer's scatter-gather hook. The implementation must
	// honor the determinism contract: the merged hits and counters, and the
	// metering folded per record in record order, must be bitwise-identical
	// to the in-process scan's, so shard count can never change what a
	// request computes.
	Scatter ScatterFunc
}

// ScatterRequest is one database scan handed to a Scatter hook: everything
// the in-process scan would have used, plus the metering scale and the
// accumulators the hook records into. Workers has exactly Threads entries,
// each empty; worker w owns the records parallel.Span(n, w, Threads), and
// its records must reach it in record order — recorded into it directly,
// or scanned into private accumulators whose taken folds it Joins in order.
// Each worker folds what it is given per record (metering.Fold), and after
// the scan the chain takes the folds in worker order, which is the scan's
// record order, and stitches them into its per-record sums, so a scattered
// scan replays bitwise-identically to the single-node one.
type ScatterRequest struct {
	Profile *hmmer.Profile
	Query   *seq.Sequence
	DB      *seqdb.DB
	// Search carries the engine options, TraceE set for the round.
	Search hmmer.SearchOptions
	// Threads is the request's thread count: the number of workers.
	Threads int
	// ScaleFactor is the synthetic-to-paper metering scale for this
	// database (DB.ScaleFactor × workCalibration); every shard's events
	// must be scaled by it (metering.Scaled) before they are folded.
	ScaleFactor float64
	// Workers are the accumulators to record into (len == Threads).
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
	// Workers holds per-thread metering (scaled to paper volume); index =
	// worker id. Each is a ledger: its Credit sums, per function, span t
	// of every scan's records of every chain merged in. No worker holds an
	// event.
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

	// deltas are the chains merged in, in order, and dbs the set whose
	// reader lanes they were credited with: what Rethread re-credits.
	deltas []*chainDelta
	dbs    *DBSet
}

// Run executes the MSA phase for the input: for every protein/RNA chain,
// search the matching databases, each scan sharded over at most one span
// per core, iterating protein profiles Rounds times, and attribute the
// metering across Threads workers.
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
	chains := in.MSAChains()
	res := &Result{
		Input:    in,
		PerChain: make([]ChainResult, 0, len(chains)),
		Workers:  newWorkers(opts.Threads),
		Streamed: make(map[string]int64),
		deltas:   make([]*chainDelta, 0, len(chains)),
		dbs:      opts.DBs,
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

	for _, chain := range chains {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cid := chain.IDs[0]
		if d := opts.Checkpoint.lookup(opts.CheckpointScope, cid); d != nil {
			res.RestoredChains++
			res.FreshWork += deltaWork(d)
			if err := res.merge(d); err != nil {
				return nil, fmt.Errorf("msa %s chain %s: %w", in.Name, cid, err)
			}
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
			if err := res.merge(d); err != nil {
				return nil, fmt.Errorf("msa %s chain %s: %w", in.Name, cid, err)
			}
			opts.Checkpoint.store(opts.CheckpointScope, cid, d)
			continue
		}
		d, err := runFresh(chain)
		if err != nil {
			return nil, fmt.Errorf("msa %s chain %s: %w", in.Name, cid, err)
		}
		if err := res.merge(d); err != nil {
			return nil, fmt.Errorf("msa %s chain %s: %w", in.Name, cid, err)
		}
		opts.Checkpoint.store(opts.CheckpointScope, cid, d)
		res.FreshWork += deltaWork(d)
	}
	// Cross-chain species pairing (serial, between search and features).
	perChainHits := make([][]hmmer.Hit, len(res.deltas))
	totalHits := 0
	for i, d := range res.deltas {
		perChainHits[i] = d.hits
		totalHits += len(d.hits)
	}
	res.Pairing = pairChains(perChainHits)
	res.SerialInstructions += uint64(totalHits) * 3000 // paired-row assembly

	res.Features = buildFeatures(in, res.PerChain)
	res.Features.PairedRows = len(res.Pairing.Rows)
	// Feature assembly is serial: stacking, deduplication, pairing.
	res.SerialInstructions += uint64(res.Features.Rows*res.Features.Cols) * 40
	return res, nil
}

// runChain searches all matching databases for one chain, computing its
// full contribution — summary row, final-round hits, metering sums,
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
	d := &chainDelta{cr: ChainResult{ChainID: cid, Type: query.Type}, streamed: make(map[string]int64)}
	cr := &d.cr
	dbs := opts.DBs.For(query.Type)
	if len(dbs) == 0 {
		if opts.AllowMissingDB {
			// Degraded profile: the chain proceeds with only its own
			// sequence (alignment depth 1, nothing scanned or streamed).
			cr.Rows = 1
			return d, nil
		}
		return nil, fmt.Errorf("no databases for molecule type %v", query.Type)
	}
	d.dbRecs = make([]dbRecords, len(dbs))
	for i, db := range dbs {
		d.dbRecs[i] = dbRecords{db.Name, len(db.Seqs)}
	}
	rounds := opts.Rounds
	if query.Type != seq.Protein {
		rounds = 1 // nhmmer is single-pass
	}

	// Every scan records into the workers, span w into worker w, each
	// worker folding its records as they come (metering.Fold). After each
	// scan the workers' folds, in worker order, hold the scan's records in
	// order; setStream stitches them into the chain's sums.
	workers := newWorkers(opts.Threads)
	var folds []*metering.Fold
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
			merged, err := scanParallel(ctx, profile, query, db, opts, workers)
			if err != nil {
				return nil, err
			}
			for _, acc := range workers {
				if f := acc.TakeFold(); f != nil {
					folds = append(folds, f)
				}
			}
			d.streamed[db.Name] += db.ModeledBytes()
			d.readerWork += opts.DBs.lane(db).instructions()
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
		d.serial += uint64(len(rows)*query.Len()) * 600
		if len(rows) <= 1 {
			break
		}
		profile, err = hmmer.BuildFromAlignment(query.ID, query.Type, rows)
		if err != nil {
			return nil, err
		}
	}
	d.hits = lastHits
	cr.Hits = len(lastHits)
	cr.Rows = 1
	for _, h := range lastHits {
		cr.HitResidues += h.Target.Len()
		if h.EValue <= hmmer.InclusionE {
			cr.Rows++
		}
	}
	// Merging and E-value sorting of the paper-scale hit list is serial.
	d.serial += uint64(cr.HitResidues) * 1200
	if err := d.setStream(folds); err != nil {
		return nil, err
	}
	return d, nil
}

// setStream stitches the scans' folds, in scan order, into per-function
// sums at record boundaries (chainDelta.sums): one walk over their rows,
// every function's arrays cut exactly to its row count from one backing
// array for the running totals and one for the record indexes. A fold
// with work before its first record, folds that hold another number of
// records than the scans report, and reader-lane work, which the chain's
// databases already hold, are an error: that work would be credited to the
// wrong records, or twice.
func (d *chainDelta) setStream(folds []*metering.Fold) error {
	// occ[f] counts the records f has work in.
	var occ [metering.NumFuncs]int
	records := 0
	for _, fd := range folds {
		records += fd.Records
		for f, n := range fd.FuncRows {
			occ[f] += n
		}
	}
	if records != d.cr.Scanned {
		return fmt.Errorf("msa: the scans recorded %d records, reported %d", records, d.cr.Scanned)
	}
	for _, f := range readerFuncs {
		if occ[f] > 0 {
			return fmt.Errorf("msa: a scan recorded %s work, which is its database's", f)
		}
	}
	// A function with work has a running total per record it has work in,
	// plus the zero one, and unless that is every record, their indexes.
	totals, indexes := 0, 0
	for _, n := range occ {
		totals += n + min(n, 1)
		if n < records {
			indexes += n
		}
	}
	cums, recs := make([]metering.Tally, totals), make([]int32, indexes)
	var slot [metering.NumFuncs]int
	for f, n := range occ {
		if n > 0 {
			s := funcSums{f: metering.Func(f), cum: cums[: 1 : n+1]}
			cums = cums[n+1:]
			if n < records {
				s.recs, recs = recs[:0:n], recs[n:]
			}
			slot[f] = len(d.sums)
			d.sums = append(d.sums, s)
		}
	}
	// A fold holds at most one row per record and function.
	base := 0
	for _, fd := range folds {
		for _, r := range fd.Rows {
			if r.Rec < 0 {
				return fmt.Errorf("msa: a scan recorded work before its first record")
			}
			s := &d.sums[slot[r.Func]]
			s.cum = append(s.cum, s.cum[len(s.cum)-1])
			s.cum[len(s.cum)-1].Add(r.Tally)
			if s.recs != nil {
				s.recs = append(s.recs, int32(base+int(r.Rec)))
			}
		}
		base += fd.Records
	}
	return nil
}

// scanParallel scans one database with the chain's current profile into
// workers: through the Scatter hook when one is set, in process
// (scanShards) otherwise.
func scanParallel(ctx context.Context, profile *hmmer.Profile, query *seq.Sequence, db *seqdb.DB, opts Options, workers []*metering.Accumulator) (*hmmer.Result, error) {
	scatter := opts.Scatter
	if scatter == nil {
		scatter = scanShards
	}
	return scatter(ctx, ScatterRequest{
		Profile:     profile,
		Query:       query,
		DB:          db,
		Search:      opts.Search,
		Threads:     opts.Threads,
		ScaleFactor: db.ScaleFactor * workCalibration,
		Workers:     workers,
	})
}

// scanShards is the in-process ScatterFunc: it shards the database over
// min(len(Workers), cores) contiguous spans scanned concurrently on the
// shared pool of that width — the analog of HMMER's worker threads
// consuming reader blocks — span w recording into Workers[w], its fold
// sized once from the span's record count, so the workers in order hold
// the scan's records in order. The width is a concurrency cap, not an
// attribution: a merge credits the chain's records to the request's thread
// count, so a 2 000-thread request runs as many goroutines as a 2-thread
// one. Each span's metering events are scaled by the database's
// synthetic-to-paper factor before they are folded.
//
// Scratch reuse: each span's scan draws a scanWorkspace from the hmmer
// package's sync.Pool for the duration of its pass, so the DP rows,
// Forward rows and seed scratch are allocated once per span per database —
// not once per record — and successive databases reuse the buffers the
// previous pass grew.
func scanShards(ctx context.Context, req ScatterRequest) (*hmmer.Result, error) {
	db := req.DB
	width := min(len(req.Workers), parallel.DefaultWorkers())
	parts := make([]*hmmer.Result, width)
	errs := make([]error, width)
	ctxErr := parallel.ForWorkers(width).RunCtx(ctx, len(db.Seqs), func(w, lo, hi int) {
		req.Workers[w].Reserve(hi - lo)
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
