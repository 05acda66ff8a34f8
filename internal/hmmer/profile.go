package hmmer

import (
	"fmt"
	"math"

	"afsysbench/internal/seq"
)

// Profile is a position-specific scoring model with M match columns over an
// alphabet of size K. It is the light-weight analog of a Plan7 profile HMM:
// per-column match emission scores, a per-column insert penalty, and affine
// gap transitions. Profiles are built either from a single query sequence
// (first jackhmmer round) or from a stacked alignment of recruited hits
// (subsequent rounds).
type Profile struct {
	Name string
	Type seq.MoleculeType
	M    int // number of match columns
	K    int // alphabet size

	// Match holds emission scores indexed [col*K + residue]. It is the
	// authoritative table: profile construction writes it.
	Match []float32
	// MatchT is the residue-major transpose of Match, indexed
	// [residue*M + col]. The scan kernels iterate profile columns for one
	// fixed target residue at a time, so this layout turns their inner-loop
	// emission lookups from stride-K walks (one cache line per column) into
	// contiguous reads. It is derived from Match by BuildTransposed, like
	// the unexported tables below; the kernels read only derived tables.
	MatchT []float32
	// InsertPenalty is charged per inserted residue at any column.
	InsertPenalty float32
	// Open/Extend are affine gap transition penalties.
	Open, Extend float32

	// Gumbel parameters for E-value computation, set by calibrate().
	Lambda, Mu float64

	// maxMatch is max(0, max emission score), set by BuildTransposed. It
	// bounds the per-row score gain of any alignment path and anchors the
	// band cutoff's provably-safe pruning ceiling.
	maxMatch float32
	// oddsT is exp(MatchT) and openOdds exp(Open), set by BuildTransposed:
	// the tables the Forward kernel multiplies where the log-space
	// definition adds. float64 keeps it within 1e-9 of that definition at
	// scores in the tens of thousands.
	oddsT    []float64
	openOdds float64
}

// BuildTransposed (re)derives MatchT, the pruning bound and the Forward
// odds tables from Match, Open included. The standard constructors call it;
// a caller that assembles a Profile by hand, or edits Match or Open, calls
// it to bring the derived tables in step.
func (p *Profile) BuildTransposed() {
	if len(p.Match) != p.M*p.K {
		return
	}
	if cap(p.MatchT) < len(p.Match) {
		p.MatchT = make([]float32, len(p.Match))
	}
	p.MatchT = p.MatchT[:len(p.Match)]
	if cap(p.oddsT) < len(p.Match) {
		p.oddsT = make([]float64, len(p.Match))
	}
	p.oddsT = p.oddsT[:len(p.Match)]
	p.openOdds = math.Exp(float64(p.Open))
	p.maxMatch = 0
	for col := 0; col < p.M; col++ {
		for r := 0; r < p.K; r++ {
			s := p.Match[col*p.K+r]
			p.MatchT[r*p.M+col] = s
			p.oddsT[r*p.M+col] = math.Exp(float64(s))
			if s > p.maxMatch {
				p.maxMatch = s
			}
		}
	}
}

// transposed reports whether the tables BuildTransposed derives are
// present. A MatchT filled by hand does not count: the odds table and the
// pruning bound would be missing.
func (p *Profile) transposed() bool {
	return len(p.MatchT) == len(p.Match) && len(p.oddsT) == len(p.Match) && len(p.Match) == p.M*p.K
}

// derived returns the profile the kernels run on: p itself when its
// derived tables are present, as they are after any constructor, and
// otherwise — a Profile assembled by hand without BuildTransposed — a
// shallow copy with tables of its own, so that the public entry points
// neither index a missing table nor write to a profile the caller may share.
func (p *Profile) derived() *Profile {
	if p.transposed() {
		return p
	}
	cp := *p
	cp.MatchT, cp.oddsT = nil, nil
	cp.BuildTransposed()
	return &cp
}

// BuildFromQuery constructs a profile directly from one query sequence using
// the substitution matrix: column i emits residue r with score matrix(q_i, r).
func BuildFromQuery(q *seq.Sequence) (*Profile, error) {
	mat := MatrixFor(q.Type)
	if mat == nil {
		return nil, fmt.Errorf("hmmer: cannot build profile for molecule type %v", q.Type)
	}
	if q.Len() == 0 {
		return nil, fmt.Errorf("hmmer: empty query %q", q.ID)
	}
	p := &Profile{
		Name:          q.ID,
		Type:          q.Type,
		M:             q.Len(),
		K:             mat.N,
		Match:         make([]float32, q.Len()*mat.N),
		InsertPenalty: -1,
		Open:          gapOpen,
		Extend:        gapExtend,
	}
	for i, r := range q.Residues {
		copy(p.Match[i*mat.N:(i+1)*mat.N], mat.Scores[int(r)*mat.N:(int(r)+1)*mat.N])
	}
	p.calibrate()
	p.BuildTransposed()
	return p, nil
}

// Column weights used when building from an alignment: simple Laplace
// pseudocount smoothing against the background.
const pseudocount = 0.5

// BuildFromAlignment constructs a profile from aligned sequences, all of the
// same length and molecule type. Columns emit log-odds scores of the
// smoothed observed frequencies against a uniform background. Gap symbols
// are represented by the residue value GapResidue.
func BuildFromAlignment(name string, t seq.MoleculeType, rows [][]byte) (*Profile, error) {
	mat := MatrixFor(t)
	if mat == nil {
		return nil, fmt.Errorf("hmmer: cannot build profile for molecule type %v", t)
	}
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("hmmer: empty alignment for %q", name)
	}
	m := len(rows[0])
	for i, row := range rows {
		if len(row) != m {
			return nil, fmt.Errorf("hmmer: alignment row %d length %d != %d", i, len(row), m)
		}
	}
	k := mat.N
	p := &Profile{
		Name:          name,
		Type:          t,
		M:             m,
		K:             k,
		Match:         make([]float32, m*k),
		InsertPenalty: -1,
		Open:          gapOpen,
		Extend:        gapExtend,
	}
	background := 1.0 / float64(k)
	counts := make([]float64, k)
	for col := 0; col < m; col++ {
		for i := range counts {
			counts[i] = pseudocount
		}
		total := pseudocount * float64(k)
		for _, row := range rows {
			r := row[col]
			if r == GapResidue || int(r) >= k {
				continue
			}
			counts[r]++
			total++
		}
		for r := 0; r < k; r++ {
			freq := counts[r] / total
			// Log-odds in the same scale as the substitution matrices
			// (roughly half-bits): 2*log2(freq/background).
			p.Match[col*k+r] = float32(2 * math.Log2(freq/background))
		}
	}
	p.calibrate()
	p.BuildTransposed()
	return p, nil
}

// GapResidue marks alignment gaps in rows passed to BuildFromAlignment.
const GapResidue byte = 0xff

// calibrate sets Gumbel E-value parameters from profile statistics. Real
// HMMER estimates lambda/mu by simulation; we use the standard analytic
// approximations: lambda from the score scale, mu growing with log(M) —
// which preserves the qualitative behavior that longer profiles need higher
// scores for the same significance.
func (p *Profile) calibrate() {
	// Expected per-column score against random sequence.
	var mean, meanSq float64
	for col := 0; col < p.M; col++ {
		for r := 0; r < p.K; r++ {
			s := float64(p.Match[col*p.K+r])
			mean += s
			meanSq += s * s
		}
	}
	n := float64(p.M * p.K)
	mean /= n
	variance := meanSq/n - mean*mean
	if variance < 1e-6 {
		variance = 1e-6
	}
	// Score scale: lambda ~ c / stddev; calibrated so that random-vs-random
	// searches yield E >= 1 for their top hits at typical M.
	p.Lambda = 1.1 / math.Sqrt(variance)
	p.Mu = 4*math.Log(float64(p.M)+1) + 8
}

// EValue converts a raw alignment score into an expectation value for a
// search over dbResidues total target residues, via the Gumbel tail
// P(S > s) ≈ exp(-lambda*(s - mu)) scaled by the effective number of
// alignment starts.
func (p *Profile) EValue(score float64, dbResidues int) float64 {
	starts := float64(dbResidues) / float64(p.M+1)
	if starts < 1 {
		starts = 1
	}
	tail := math.Exp(-p.Lambda * (score - p.Mu))
	return starts * tail
}

// BitScore converts a raw score to bits for reporting.
func (p *Profile) BitScore(score float64) float64 {
	return p.Lambda * score / math.Ln2
}

// MemoryBytes returns the resident size of the profile's score table as the
// DP kernels see it — part of the working set the cache model is charged
// with. Each kernel reads exactly one table, so the hot working set is one
// table regardless of how many layouts the profile keeps resident.
func (p *Profile) MemoryBytes() uint64 {
	return uint64(len(p.Match)) * 4
}
