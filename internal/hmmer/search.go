package hmmer

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"

	"afsysbench/internal/metering"
	"afsysbench/internal/seq"
)

// SearchOptions configures a database search. Everything else about a
// search is a constant below: the paper characterises AF3 at HMMER's stock
// settings and sweeps input, platform and thread count only.
type SearchOptions struct {
	// Iterations is the number of jackhmmer rounds (default 2).
	Iterations int
	// Inert: the 8-bit filter tier this switched is gone (DESIGN §11). The
	// name stays only because bench/layers.go, which belongs to the
	// benchmark, still assigns it.
	DisableSWAR bool
	// Inert: the buffering layer's work, whose working set this was, is
	// the database's and no longer recorded by a scan (ReaderEvents). The
	// name stays only because bench/layers.go, which belongs to the
	// benchmark, still assigns it.
	DBFootprint uint64
	// TraceE is the traceback ceiling: kept hits with EValue <= TraceE carry
	// a traced Alignment, the rest a nil one. Zero traces every kept hit,
	// TraceNone none. Scores, E-values and metered events do not depend on it.
	TraceE float64
}

// TraceNone is the SearchOptions.TraceE of a scan whose alignments nothing
// reads (no E-value is negative).
const TraceNone = -1

// traces reports whether a kept hit with E-value ev gets its alignment.
func (o SearchOptions) traces(ev float64) bool { return o.TraceE == 0 || ev <= o.TraceE }

func (o SearchOptions) withDefaults() SearchOptions {
	if o.Iterations == 0 {
		o.Iterations = 2
	}
	return o
}

const (
	// maxEValue is the reporting threshold.
	maxEValue = 10
	// InclusionE is the profile-recruitment threshold for iterative search
	// rounds.
	InclusionE = 1e-3
	// maxDiagonals caps candidate diagonals per target. The cap is what
	// keeps poly-Q queries from unbounded blowup — but each capped diagonal
	// still costs a full banded DP, which is the promo sample's slowdown
	// mechanism.
	maxDiagonals = 64
)

// seedK is the k-mer seed length, chosen so the expected random k-mer
// collision rate is similar across alphabets: 20^3 for protein, 4^8 for
// nucleotides.
func seedK(t seq.MoleculeType) int {
	if t == seq.Protein {
		return 3
	}
	return 8
}

// minSeeds is the votes a diagonal needs before it is DP'd. Protein seeds
// need corroboration; nucleotide search keeps nhmmer's sensitivity by
// aligning every seeded window, which is exactly why RNA search is so
// expensive (paper Section VII).
func minSeeds(t seq.MoleculeType) int {
	if t == seq.Protein {
		return 2
	}
	return 1
}

// Hit is one reported database match.
type Hit struct {
	TargetID     string
	Target       *seq.Sequence
	Diagonal     int
	ViterbiScore float64
	ForwardScore float64
	Bits         float64
	EValue       float64
	// Alignment is the traced Viterbi path (nil if tracing was skipped).
	Alignment *Alignment
}

// Result summarizes a search.
type Result struct {
	Query      string
	Hits       []Hit // sorted by ascending E-value
	Scanned    int   // records examined
	Candidates int   // candidate diagonals DP'd
	CellsDP    uint64
	// CellsPruned counts the band DP cells the row-max cutoff provably
	// skipped; CellsDP + CellsPruned is the unpruned band volume.
	CellsPruned uint64
	// Always 0: it counted the work the deleted 8-bit filter tier rejected
	// (DESIGN §11). The name stays only because bench/layers.go, which
	// belongs to the benchmark, still reads it.
	LanesRejected uint64
	Rounds        int
	// Windows counts long-target windows scanned (nucleotide searches).
	Windows int
	// PeakWindowStateBytes is the largest per-target accumulated window
	// state seen — nhmmer's memory driver (Figure 2).
	PeakWindowStateBytes int64
}

// seedIndex maps k-mers of the query to their positions, the BLAST-style
// prefilter that replaces a full-matrix scan. Low-complexity queries hash
// the same k-mer to many positions, which is exactly how repetitive
// sequence (poly-Q) inflates candidate diagonals downstream.
//
// Both production seed lengths give a k-mer space small enough to address
// directly (20³ = 8 000, 4⁸ = 65 536), so the index is a CSR table, not a
// map: the query positions of k-mer h are pos[off[h]:off[h+1]]. Diagonal
// votes are an array too. One index lives in each scan workspace; a scan
// rebuilds it in place unless it already indexes the scan's query.
type seedIndex struct {
	k        int
	alphaLen int
	// indexed is a copy of the residues the tables were built from: a pooled
	// workspace outlives its queries, so only content can say they still hold.
	indexed  []byte
	size     uint32  // alphaLen^k, the number of k-mers
	off      []int32 // size+2 offsets into pos (the last is build's cursor slack)
	pos      []int32
	distinct int // k-mers with at least one position

	// candidates' scratch: votes[d+L] counts the seeds on diagonal d of an
	// L-residue target; touched lists the non-zero entries, so the array is
	// reset through it and never cleared whole.
	votes   []int32
	touched []int32
	diags   []int
}

// build indexes the k-mers of q, reusing the index's tables — as they are
// when the last build was of the same residues: one chain scans databases ×
// rounds × threads (× shards) times with one query.
func (idx *seedIndex) build(q *seq.Sequence, k int) {
	alphaLen := len(q.Type.Alphabet())
	if idx.k == k && idx.alphaLen == alphaLen && bytes.Equal(idx.indexed, q.Residues) {
		return
	}
	idx.k, idx.alphaLen = k, alphaLen
	idx.indexed = append(idx.indexed[:0], q.Residues...)
	idx.size = 1
	for i := 0; i < k; i++ {
		idx.size *= uint32(idx.alphaLen)
	}
	if cap(idx.off) < int(idx.size)+2 {
		idx.off = make([]int32, idx.size+2)
	}
	idx.off = idx.off[:idx.size+2]
	clear(idx.off)
	n := max(q.Len()-k+1, 0)
	if cap(idx.pos) < n {
		idx.pos = make([]int32, n)
	}
	idx.pos = idx.pos[:n]
	idx.distinct = 0
	if n == 0 {
		return
	}
	// Hash the first window in full, then roll: each subsequent window is
	// O(1) instead of O(k), and the value is identical (the polynomial hash
	// is exact under uint32 wraparound). Count k-mer h two slots up, so
	// that after the prefix sum off[h+1] is where h's positions start and
	// can serve as h's write cursor; when every position is written it has
	// advanced to where h+1's start, which is what a reader wants there.
	top := idx.topWeight()
	kmers := func(visit func(i int, h uint32)) {
		h := idx.hash(q.Residues[:k])
		for i := 0; i < n; i++ {
			if i > 0 {
				h = idx.roll(h, q.Residues[i-1], q.Residues[i+k-1], top)
			}
			visit(i, h)
		}
	}
	kmers(func(_ int, h uint32) {
		if idx.off[h+2] == 0 {
			idx.distinct++
		}
		idx.off[h+2]++
	})
	for h := 2; h < len(idx.off); h++ {
		idx.off[h] += idx.off[h-1]
	}
	kmers(func(i int, h uint32) {
		idx.pos[idx.off[h+1]] = int32(i)
		idx.off[h+1]++
	})
}

func (idx *seedIndex) hash(kmer []byte) uint32 {
	var h uint32
	for _, r := range kmer {
		h = h*uint32(idx.alphaLen) + uint32(r)
	}
	return h
}

// topWeight returns alphaLen^(k-1) mod 2³² — the weight of the leading
// residue in the polynomial hash.
func (idx *seedIndex) topWeight() uint32 {
	w := uint32(1)
	for i := 1; i < idx.k; i++ {
		w *= uint32(idx.alphaLen)
	}
	return w
}

// roll slides a window hash one position right: drop `out`, append `in`.
// All arithmetic wraps mod 2³², so the result equals hash() of the shifted
// window exactly.
func (idx *seedIndex) roll(h uint32, out, in byte, top uint32) uint32 {
	return (h-uint32(out)*top)*uint32(idx.alphaLen) + uint32(in)
}

// candidates returns the merged candidate diagonals for a target, recording
// the seed-scan work. Diagonals closer than mergeDist collapse into one.
// The returned slice is the index's scratch, valid until its next use.
func (idx *seedIndex) candidates(target *seq.Sequence, minSeeds, maxDiag, mergeDist int, m metering.Meter) []int {
	L := target.Len()
	if L < idx.k {
		return nil
	}
	// A seed at query position qp and target position i votes for diagonal
	// qp-i, in (-L, len(pos)): votes[qp-i+L].
	if need := L + len(idx.pos); len(idx.votes) < need {
		idx.votes = make([]int32, need)
	}
	votes, touched := idx.votes, idx.touched[:0]
	var probes uint64
	h := idx.hash(target.Residues[:idx.k])
	top := idx.topWeight()
	for i := 0; i+idx.k <= L; i++ {
		if i > 0 {
			h = idx.roll(h, target.Residues[i-1], target.Residues[i+idx.k-1], top)
		}
		if h >= idx.size {
			continue // a residue outside the alphabet: no query k-mer has it
		}
		hits := idx.pos[idx.off[h]:idx.off[h+1]]
		for _, qp := range hits {
			v := int32(L-i) + qp
			if votes[v] == 0 {
				touched = append(touched, v)
			}
			votes[v]++
		}
		probes += uint64(len(hits))
	}
	// Probe work scales with posting-list traffic: low-complexity queries
	// hash many positions to the same k-mer, so repetitive targets walk
	// long posting lists — the seed-stage half of the promo blowup.
	m.Record(metering.Event{
		Func:         metering.SeedFilter,
		Instructions: uint64(L)*6 + probes*8,
		Bytes:        uint64(L)*12 + probes*16,
		WorkingSet:   uint64(idx.distinct)*16 + uint64(L),
		Branches:     uint64(L)*2 + probes,
	})
	diags := idx.diags[:0]
	for _, v := range touched {
		if int(votes[v]) >= minSeeds {
			diags = append(diags, int(v)-L)
		}
		votes[v] = 0
	}
	sort.Ints(diags)
	// Merge nearby diagonals into band-sized clusters. The cluster span is
	// bounded by mergeDist (one band can only cover that many diagonals),
	// so a repeat-rich target that lights up hundreds of diagonals still
	// yields dozens of separate bands to align — the DP-stage half of the
	// promo blowup.
	merged := diags[:0]
	for i := 0; i < len(diags); {
		j := i
		for j+1 < len(diags) && diags[j+1]-diags[i] <= mergeDist {
			j++
		}
		merged = append(merged, diags[(i+j)/2])
		i = j + 1
	}
	if len(merged) > maxDiag {
		merged = merged[:maxDiag]
	}
	idx.touched, idx.diags = touched, diags // keep the (possibly grown) backing arrays
	return merged
}

// SearchProtein runs a jackhmmer-style iterative profile search of query
// against the database records supplied by src. Each round scans the whole
// database; hits below the inclusion threshold are stacked into an
// alignment from which the next round's profile is built.
func SearchProtein(query *seq.Sequence, src func() RecordSource, dbResidues int, opts SearchOptions, m metering.Meter) (*Result, error) {
	return SearchProteinCtx(context.Background(), query, src, dbResidues, opts, m)
}

// SearchProteinCtx is SearchProtein with cancellation: the context is
// observed between iteration rounds and every few records inside the scan,
// so a cancelled search returns promptly with ctx's error instead of
// finishing the remaining rounds.
func SearchProteinCtx(ctx context.Context, query *seq.Sequence, src func() RecordSource, dbResidues int, opts SearchOptions, m metering.Meter) (*Result, error) {
	if query.Type != seq.Protein {
		return nil, fmt.Errorf("hmmer: SearchProtein requires a protein query, got %v", query.Type)
	}
	opts = opts.withDefaults()
	if m == nil {
		m = metering.Nop{}
	}
	profile, err := BuildFromQuery(query)
	if err != nil {
		return nil, err
	}
	var res *Result
	for round := 0; round < opts.Iterations; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		last := round == opts.Iterations-1
		res, err = scanDB(ctx, profile, query, src(), dbResidues, opts, !last, m)
		if err != nil {
			return nil, err
		}
		res.Rounds = round + 1
		if last {
			break
		}
		rows := BuildGappedAlignment(query, res.Hits, InclusionE)
		if len(rows) <= 1 {
			break // nothing recruited; further rounds are identical
		}
		profile, err = BuildFromAlignment(query.ID, query.Type, rows)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// SearchNucleotide runs an nhmmer-style single-pass scan for RNA/DNA
// queries. Long targets are searched in overlapping windows; the per-window
// candidate state is what makes long-query nucleotide search memory-hungry
// (Fig. 2 in the paper).
func SearchNucleotide(query *seq.Sequence, src func() RecordSource, dbResidues int, opts SearchOptions, m metering.Meter) (*Result, error) {
	return SearchNucleotideCtx(context.Background(), query, src, dbResidues, opts, m)
}

// SearchNucleotideCtx is SearchNucleotide with cancellation (see
// SearchProteinCtx).
func SearchNucleotideCtx(ctx context.Context, query *seq.Sequence, src func() RecordSource, dbResidues int, opts SearchOptions, m metering.Meter) (*Result, error) {
	if query.Type != seq.RNA && query.Type != seq.DNA {
		return nil, fmt.Errorf("hmmer: SearchNucleotide requires RNA or DNA, got %v", query.Type)
	}
	if m == nil {
		m = metering.Nop{}
	}
	profile, err := BuildFromQuery(query)
	if err != nil {
		return nil, err
	}
	res, err := scanDB(ctx, profile, query, src(), dbResidues, opts, false, m)
	if err != nil {
		return nil, err
	}
	res.Rounds = 1
	return res, nil
}

// ScanRecords runs one search pass of the profile over the records from
// src — the unit of work one worker thread performs on its database shard.
// Callers that parallelize a search shard the database and merge the
// returned results (see the msa package); iteration across rounds stays
// with the caller.
func ScanRecords(p *Profile, query *seq.Sequence, src RecordSource, dbResidues int, opts SearchOptions, m metering.Meter) (*Result, error) {
	return ScanRecordsCtx(context.Background(), p, query, src, dbResidues, opts, m)
}

// ScanRecordsCtx is ScanRecords with cancellation: ctx is checked every
// few records, so a worker shard of a cancelled MSA scan abandons its
// remaining records instead of finishing the pass.
func ScanRecordsCtx(ctx context.Context, p *Profile, query *seq.Sequence, src RecordSource, dbResidues int, opts SearchOptions, m metering.Meter) (*Result, error) {
	if m == nil {
		m = metering.Nop{}
	}
	return scanDB(ctx, p.derived(), query, src, dbResidues, opts, false, m)
}

// BuildHitAlignment stacks hits below the inclusion threshold into
// profile-column alignment rows (row 0 is the query), the input to
// BuildFromAlignment for the next search round. Hits carrying a traced
// Viterbi path stack gapped; the rest fall back to the ungapped diagonal
// projection.
func BuildHitAlignment(query *seq.Sequence, hits []Hit, inclusionE float64) [][]byte {
	return BuildGappedAlignment(query, hits, inclusionE)
}

// MergeResults combines per-shard results into one, re-sorting by E-value
// and deduplicating by target.
func MergeResults(query string, parts []*Result) *Result {
	merged := &Result{Query: query}
	for _, p := range parts {
		if p == nil {
			continue
		}
		merged.Hits = append(merged.Hits, p.Hits...)
		merged.Scanned += p.Scanned
		merged.Candidates += p.Candidates
		merged.CellsDP += p.CellsDP
		merged.CellsPruned += p.CellsPruned
		merged.Windows += p.Windows
		if p.PeakWindowStateBytes > merged.PeakWindowStateBytes {
			merged.PeakWindowStateBytes = p.PeakWindowStateBytes
		}
	}
	sort.Slice(merged.Hits, func(i, j int) bool {
		if merged.Hits[i].EValue != merged.Hits[j].EValue {
			return merged.Hits[i].EValue < merged.Hits[j].EValue
		}
		return merged.Hits[i].TargetID < merged.Hits[j].TargetID
	})
	// A 0- or 1-element hit list is already deduplicated; most shards of a
	// selective search land here, so skip the map allocation for them.
	if len(merged.Hits) > 1 {
		seen := make(map[string]bool, len(merged.Hits))
		uniq := merged.Hits[:0]
		for _, h := range merged.Hits {
			if !seen[h.TargetID] {
				seen[h.TargetID] = true
				uniq = append(uniq, h)
			}
		}
		merged.Hits = uniq
	}
	return merged
}

// scanState carries everything one scan pass shares across records: the
// profile, the pooled workspace with the query's seed index in it, the
// precomputed band floor, and the accumulating Result. One scanState serves
// one worker shard; it is not safe for concurrent use (each msa worker builds
// its own, drawing a workspace from the shared pool).
type scanState struct {
	p          *Profile
	query      *seq.Sequence
	dbResidues int
	m          metering.Meter
	ws         *scanWorkspace
	res        *Result
	// bandFloor is the Viterbi score below which the E-value gate provably
	// skips Forward (negInf disarms the band cutoff; see bandScoreFloor).
	bandFloor float32
}

func newScanState(p *Profile, query *seq.Sequence, dbResidues int, m metering.Meter) *scanState {
	ws := takeScanWorkspace()
	ws.seeds.build(query, seedK(query.Type))
	ws.traces = ws.traces[:0]
	return &scanState{
		p:          p,
		query:      query,
		dbResidues: dbResidues,
		m:          m,
		ws:         ws,
		res:        &Result{Query: query.ID},
		bandFloor:  bandScoreFloor(p, dbResidues, maxEValue*10),
	}
}

func (s *scanState) release() {
	releaseScanWorkspace(s.ws)
	s.ws = nil
}

// bandScoreFloor inverts the post-Viterbi E-value gate (skip Forward when
// EValue(score) > evGate) into a raw-score floor the banded kernel can prune
// against. Any alignment scoring below the returned floor is discarded by
// the gate regardless of its exact value, so the DP may stop early once it
// proves it will land there. The floor sits a full point below the gate's
// exact crossover, so scores anywhere near the boundary always run to
// completion and the gate fires identically with and without pruning.
// Returns negInf (cutoff disarmed) when the floor could never fire.
func bandScoreFloor(p *Profile, dbResidues int, evGate float64) float32 {
	if p.Lambda <= 0 || evGate <= 0 {
		return negInf
	}
	starts := float64(dbResidues) / float64(p.M+1)
	if starts < 1 {
		starts = 1
	}
	// EValue(s) = starts * exp(-Lambda*(s-Mu)) <= evGate  <=>  s >= sStar.
	sStar := p.Mu + math.Log(starts/evGate)/p.Lambda
	floor := float32(sStar) - 1
	if floor <= 0 {
		// Local-alignment scores are clamped at >= 0, so a non-positive
		// floor can never trigger; skip the per-row checks entirely.
		return negInf
	}
	return floor
}

// scanRecord pushes one database record through the filter cascade: seed
// filter, banded Viterbi with the E-value-derived floor, Forward on
// survivors, traceback on reported hits.
func (s *scanState) scanRecord(target *seq.Sequence) {
	// Long nucleotide targets go through the windowed nhmmer path.
	if s.query.Type != seq.Protein && target.Len() > longTargetThreshold(s.query.Len()) {
		s.scanLongTarget(target)
		return
	}
	diags := s.ws.seeds.candidates(target, minSeeds(s.query.Type), maxDiagonals, 2*BandHalfWidth, s.m)
	s.cascade(target, target, 0, diags)
}

// pendingTrace is what a reported hit's traceback needs beyond the Hit
// itself, kept beside Result.Hits (same index) until scanDB has decided
// which hits survive: the residues [offset, offset+viewLen) of the target
// that the kernels scored, and the row of that view the best cell is in.
// It is not part of Hit because cached hits are copied per request, so every
// byte of Hit is paid on the cached-request path.
type pendingTrace struct {
	offset, viewLen, endRow int
}

// cascade runs the DP tiers over one view's candidate diagonals — banded
// Viterbi, the E-value gate, Forward, its gate — and appends the reported
// hits to the result, each with a pendingTrace in place of its alignment.
// view is what the kernels score: the whole target, or a window into it
// starting at residue offset (0 for the whole target); hit coordinates are
// reported against the whole target.
func (s *scanState) cascade(view, target *seq.Sequence, offset int, diags []int) {
	res := s.res
	for _, d := range diags {
		res.Candidates++
		ali, pruned := bandedViterbi(s.p, view, d, BandHalfWidth, s.ws, s.bandFloor, s.m)
		res.CellsDP += ali.Cells
		res.CellsPruned += pruned
		ev := s.p.EValue(float64(ali.Score), s.dbResidues)
		if ev > maxEValue*10 {
			continue // not even close; skip Forward
		}
		fwd := forward(s.p, view, d, BandHalfWidth, s.ws, s.m)
		fev := s.p.EValue(fwd, s.dbResidues)
		if fev > maxEValue {
			continue
		}
		// Reported hits get a traced alignment for stacking and display.
		// Its DP is charged here, over the whole view, though it runs
		// after the scan and only if the hit survives (scanDB).
		recordTraceEvents(s.p, view.Len(), d, BandHalfWidth, s.m)
		res.Hits = append(res.Hits, Hit{
			TargetID:     target.ID,
			Target:       target,
			Diagonal:     d + offset,
			ViterbiScore: float64(ali.Score),
			ForwardScore: fwd,
			Bits:         s.p.BitScore(fwd),
			EValue:       fev,
		})
		s.ws.traces = append(s.ws.traces, pendingTrace{offset: offset, viewLen: view.Len(), endRow: ali.EndRow})
	}
}

// trace runs the traceback a hit was charged for in cascade, over the rows
// up to its best cell, and maps the path to whole-target coordinates.
func (s *scanState) trace(h *Hit, t pendingTrace) *Alignment {
	view := h.Target.Residues[t.offset : t.offset+t.viewLen]
	_, traced := traceBand(s.p, view, h.Diagonal-t.offset, BandHalfWidth, t.endRow+1, s.ws)
	if t.offset != 0 {
		for pi := range traced.Pairs {
			if traced.Pairs[pi].Pos >= 0 {
				traced.Pairs[pi].Pos += t.offset
			}
		}
	}
	return traced
}

// hitOrder sorts a scan's hits by ascending E-value, then target, then
// diagonal, carrying each hit's pendingTrace along. Two bands of one target
// can tie on E-value exactly, and sort.Sort is not stable: without the
// diagonal, which of them the dedup keeps would follow the pivots, i.e. what
// else is in the slice — the shard boundaries. The window offset separates
// the last case, one whole-target diagonal reported from two overlapping
// windows, so the order is total.
type hitOrder struct {
	hits   []Hit
	traces []pendingTrace
}

func (o hitOrder) Len() int { return len(o.hits) }

func (o hitOrder) Less(i, j int) bool {
	a, b := &o.hits[i], &o.hits[j]
	if a.EValue != b.EValue {
		return a.EValue < b.EValue
	}
	if a.TargetID != b.TargetID {
		return a.TargetID < b.TargetID
	}
	if a.Diagonal != b.Diagonal {
		return a.Diagonal < b.Diagonal
	}
	return o.traces[i].offset < o.traces[j].offset
}

func (o hitOrder) Swap(i, j int) {
	o.hits[i], o.hits[j] = o.hits[j], o.hits[i]
	o.traces[i], o.traces[j] = o.traces[j], o.traces[i]
}

// keepBest ends a scan: sort the hits, keep the best band per target — on
// repeat-rich targets most bands that clear the Forward gate end here — and
// run the traceback for the survivors at or below the options' ceiling.
// recruiting marks a whole-database round whose caller builds the next
// profile from it: if the round recruits anything, the caller reads the
// recruits' alignments and drops the rest of the Result, so InclusionE is
// the ceiling whatever the options say; if not, the search ends on this
// Result and the options hold.
func (s *scanState) keepBest(opts SearchOptions, recruiting bool) {
	res := s.res
	sort.Sort(hitOrder{res.Hits, s.ws.traces})
	if recruiting && len(res.Hits) > 0 && res.Hits[0].EValue <= InclusionE {
		opts.TraceE = InclusionE
	}
	seen := s.ws.dedupSeen()
	uniq := res.Hits[:0]
	for i := range res.Hits {
		h := &res.Hits[i]
		if seen[h.TargetID] {
			continue
		}
		seen[h.TargetID] = true
		if opts.traces(h.EValue) {
			h.Alignment = s.trace(h, s.ws.traces[i])
		}
		uniq = append(uniq, *h)
	}
	res.Hits = uniq
}

// scanDB is the shared inner loop: take each record from the source, mark
// its start for the meter's fold, seed-filter, DP candidates, Forward-score
// survivors, then keepBest. The reader's own work per record is not
// recorded here (ReaderEvents). The context is polled every
// ctxCheckStride records — cheap enough to be invisible, frequent enough
// that cancellation lands mid-shard, not at shard end.
func scanDB(ctx context.Context, p *Profile, query *seq.Sequence, src RecordSource, dbResidues int, opts SearchOptions, recruiting bool, m metering.Meter) (*Result, error) {
	const ctxCheckStride = 32
	s := newScanState(p, query, dbResidues, m)
	defer s.release()
	res := s.res
	for {
		target, ok := src.Next()
		if !ok {
			break
		}
		metering.RecordStart(m)
		res.Scanned++
		if res.Scanned%ctxCheckStride == 1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		s.scanRecord(target)
	}
	s.keepBest(opts, recruiting)
	return res, nil
}
