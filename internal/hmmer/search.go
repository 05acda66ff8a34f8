package hmmer

import (
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
	// DBFootprint is the modeled byte size of the database (for the
	// buffering layer's working-set accounting).
	DBFootprint uint64
}

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
type seedIndex struct {
	k        int
	alphaLen int
	pos      map[uint32][]int32
}

func buildSeedIndex(q *seq.Sequence, k int) *seedIndex {
	idx := &seedIndex{k: k, alphaLen: len(q.Type.Alphabet()), pos: make(map[uint32][]int32)}
	if q.Len() < k {
		return idx
	}
	// Hash the first window in full, then roll: each subsequent window is
	// O(1) instead of O(k), and the value is identical (the polynomial hash
	// is exact under uint32 wraparound).
	h := idx.hash(q.Residues[:k])
	idx.pos[h] = append(idx.pos[h], 0)
	top := idx.topWeight()
	for i := 1; i+k <= q.Len(); i++ {
		h = idx.roll(h, q.Residues[i-1], q.Residues[i+k-1], top)
		idx.pos[h] = append(idx.pos[h], int32(i))
	}
	return idx
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
// With a workspace, the vote map and diagonal slice are recycled scratch and
// the returned slice is only valid until the workspace's next use; ws may be
// nil for standalone calls.
func (idx *seedIndex) candidates(target *seq.Sequence, minSeeds, maxDiag, mergeDist int, ws *scanWorkspace, m metering.Meter) []int {
	L := target.Len()
	if L < idx.k {
		return nil
	}
	var votes map[int]int
	var scratch []int
	if ws != nil {
		votes, scratch = ws.seedScratch()
	} else {
		votes = make(map[int]int)
	}
	var probes uint64
	h := idx.hash(target.Residues[:idx.k])
	top := idx.topWeight()
	for i := 0; i+idx.k <= L; i++ {
		if i > 0 {
			h = idx.roll(h, target.Residues[i-1], target.Residues[i+idx.k-1], top)
		}
		for _, qp := range idx.pos[h] {
			votes[int(qp)-i]++
			probes++
		}
	}
	// Probe work scales with posting-list traffic: low-complexity queries
	// hash many positions to the same k-mer, so repetitive targets walk
	// long posting lists — the seed-stage half of the promo blowup.
	m.Record(metering.Event{
		Func:         "seed_filter",
		Instructions: uint64(L)*6 + probes*8,
		Bytes:        uint64(L)*12 + probes*16,
		WorkingSet:   uint64(len(idx.pos))*16 + uint64(L),
		Pattern:      metering.Random, // hash-table probes
		Branches:     uint64(L)*2 + probes,
		// Hash probe hit/miss is data-dependent and poorly predicted.
		BranchMissRate: 0.010,
	})
	diags := scratch
	if diags == nil {
		diags = make([]int, 0, len(votes))
	}
	for d, v := range votes {
		if v >= minSeeds {
			diags = append(diags, d)
		}
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
	if ws != nil {
		ws.diags = diags // keep the (possibly grown) backing array
	}
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
		res, err = scanDB(ctx, profile, query, src(), dbResidues, opts, m)
		if err != nil {
			return nil, err
		}
		res.Rounds = round + 1
		if round == opts.Iterations-1 {
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
	res, err := scanDB(ctx, profile, query, src(), dbResidues, opts, m)
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
	return scanDB(ctx, p, query, src, dbResidues, opts, m)
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
// profile, the seed index, the pooled workspace, the precomputed band
// floor, and the accumulating Result. One scanState serves one worker
// shard; it is not safe for concurrent use (each msa worker builds its own,
// drawing a workspace from the shared pool).
type scanState struct {
	p          *Profile
	query      *seq.Sequence
	idx        *seedIndex
	dbResidues int
	m          metering.Meter
	ws         *scanWorkspace
	res        *Result
	// bandFloor is the Viterbi score below which the E-value gate provably
	// skips Forward (negInf disarms the band cutoff; see bandScoreFloor).
	bandFloor float32
	// recycling marks that record pointers from the buffer are only valid
	// until the next record; retain() then clones before a Hit keeps one.
	recycling bool
	retained  *seq.Sequence
}

func newScanState(p *Profile, query *seq.Sequence, dbResidues int, m metering.Meter) *scanState {
	return &scanState{
		p:          p,
		query:      query,
		idx:        buildSeedIndex(query, seedK(query.Type)),
		dbResidues: dbResidues,
		m:          m,
		ws:         takeScanWorkspace(),
		res:        &Result{Query: query.ID},
		bandFloor:  bandScoreFloor(p, dbResidues, maxEValue*10),
	}
}

func (s *scanState) release() {
	releaseScanWorkspace(s.ws)
	s.ws = nil
}

// retain returns a form of target that stays valid after the buffer recycles
// the record: the record itself when the buffer hands out stable copies, or
// one lazily made clone per record otherwise (all hits of a record share it).
func (s *scanState) retain(target *seq.Sequence) *seq.Sequence {
	if !s.recycling {
		return target
	}
	if s.retained == nil {
		s.retained = cloneSeq(target)
	}
	return s.retained
}

func cloneSeq(t *seq.Sequence) *seq.Sequence {
	out := &seq.Sequence{ID: t.ID, Type: t.Type}
	if len(t.Residues) > 0 {
		out.Residues = append([]byte(nil), t.Residues...)
	}
	return out
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
	s.retained = nil
	// Long nucleotide targets go through the windowed nhmmer path.
	if s.query.Type != seq.Protein && target.Len() > longTargetThreshold(s.query.Len()) {
		s.scanLongTarget(target)
		return
	}
	diags := s.idx.candidates(target, minSeeds(s.query.Type), maxDiagonals, 2*BandHalfWidth, s.ws, s.m)
	s.cascade(target, target, 0, diags)
}

// cascade runs the DP tiers over one view's candidate diagonals — banded
// Viterbi, the E-value gate, Forward, its gate, the traced alignment — and
// appends the reported hits to the result. view is what the kernels score:
// the whole target, or a window into it starting at residue offset (0 for
// the whole target); hit coordinates are reported against the whole target.
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
		// Reported hits get a traced alignment for stacking and
		// display (the extra DP is charged by the traceback kernel).
		_, traced := bandedViterbiAlign(s.p, view, d, BandHalfWidth, s.ws, s.m)
		if offset != 0 && traced != nil {
			for pi := range traced.Pairs {
				if traced.Pairs[pi].Pos >= 0 {
					traced.Pairs[pi].Pos += offset
				}
			}
		}
		kept := s.retain(target)
		res.Hits = append(res.Hits, Hit{
			TargetID:     kept.ID,
			Target:       kept,
			Diagonal:     d + offset,
			ViterbiScore: float64(ali.Score),
			ForwardScore: fwd,
			Bits:         s.p.BitScore(fwd),
			EValue:       fev,
			Alignment:    traced,
		})
	}
}

// scanDB is the shared inner loop: stream records through the buffering
// layer, seed-filter, DP candidates, Forward-score survivors. The context
// is polled every ctxCheckStride records — cheap enough to be invisible,
// frequent enough that cancellation lands mid-shard, not at shard end.
func scanDB(ctx context.Context, p *Profile, query *seq.Sequence, src RecordSource, dbResidues int, opts SearchOptions, m metering.Meter) (*Result, error) {
	const ctxCheckStride = 32
	buf := NewRecyclingBuffer(src, opts.DBFootprint, m)
	s := newScanState(p, query, dbResidues, m)
	s.recycling = true
	// The buffer's bytes live in the pooled workspace between scans; hits
	// hold clones (retain), so nothing outlives the hand-back.
	buf.staging, buf.out = s.ws.staging, s.ws.record
	defer func() {
		s.ws.staging, s.ws.record = buf.staging, buf.out
		s.release()
	}()
	res := s.res
	for {
		target, ok := buf.Next()
		if !ok {
			break
		}
		res.Scanned++
		if res.Scanned%ctxCheckStride == 1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		s.scanRecord(target)
	}
	sort.Slice(res.Hits, func(i, j int) bool {
		if res.Hits[i].EValue != res.Hits[j].EValue {
			return res.Hits[i].EValue < res.Hits[j].EValue
		}
		return res.Hits[i].TargetID < res.Hits[j].TargetID
	})
	if len(res.Hits) > 1 {
		// Deduplicate by target: keep the best band only. 0- and 1-hit
		// results (the overwhelmingly common case across worker shards)
		// need no map at all; larger ones reuse the workspace's set.
		seen := s.ws.dedupSeen()
		uniq := res.Hits[:0]
		for _, h := range res.Hits {
			if !seen[h.TargetID] {
				seen[h.TargetID] = true
				uniq = append(uniq, h)
			}
		}
		res.Hits = uniq
	}
	return res, nil
}
