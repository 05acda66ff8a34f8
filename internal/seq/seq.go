// Package seq defines biomolecular sequence types and the statistical tools
// the benchmark suite uses to characterize them: alphabets for protein, DNA
// and RNA chains, Shannon-entropy and repeat-run measures of sequence
// complexity (the property that makes the paper's "promo" sample stress the
// MSA stage), and deterministic synthetic sequence generators.
package seq

import (
	"fmt"
	"math"
	"strings"

	"afsysbench/internal/rng"
)

// MoleculeType identifies the chemistry of a chain. AlphaFold3 accepts
// protein, DNA and RNA chains (plus ligands/ions, which do not participate
// in the MSA phase and are modeled only as atom counts here).
type MoleculeType int

const (
	Protein MoleculeType = iota
	DNA
	RNA
	Ligand
)

// String returns the lowercase name used in AF3 input JSON.
func (m MoleculeType) String() string {
	switch m {
	case Protein:
		return "protein"
	case DNA:
		return "dna"
	case RNA:
		return "rna"
	case Ligand:
		return "ligand"
	default:
		return fmt.Sprintf("MoleculeType(%d)", int(m))
	}
}

// SearchesMSA reports whether chains of this type go through the MSA phase.
// DNA chains are excluded from MSA in AF3 (Observation 2 in the paper);
// ligands never align.
func (m MoleculeType) SearchesMSA() bool {
	return m == Protein || m == RNA
}

// Alphabets. Residues are stored as bytes indexing into these strings.
const (
	ProteinAlphabet = "ACDEFGHIKLMNPQRSTVWY"
	DNAAlphabet     = "ACGT"
	RNAAlphabet     = "ACGU"
)

// Alphabet returns the residue alphabet for the molecule type. Ligands have
// no sequence alphabet and return the empty string.
func (m MoleculeType) Alphabet() string {
	switch m {
	case Protein:
		return ProteinAlphabet
	case DNA:
		return DNAAlphabet
	case RNA:
		return RNAAlphabet
	default:
		return ""
	}
}

// Sequence is a single chain: an identifier, its chemistry, and residues
// encoded as alphabet indices (not ASCII). Use Letters for display.
type Sequence struct {
	ID       string
	Type     MoleculeType
	Residues []byte
}

// Len returns the residue count.
func (s *Sequence) Len() int { return len(s.Residues) }

// Letters renders the residues in one-letter code.
func (s *Sequence) Letters() string {
	alpha := s.Type.Alphabet()
	var b strings.Builder
	b.Grow(len(s.Residues))
	for _, r := range s.Residues {
		if int(r) >= len(alpha) {
			b.WriteByte('X')
			continue
		}
		b.WriteByte(alpha[r])
	}
	return b.String()
}

// FromLetters builds a Sequence from one-letter code, mapping unknown
// letters to residue 0. It returns an error if the alphabet is empty.
func FromLetters(id string, t MoleculeType, letters string) (*Sequence, error) {
	alpha := t.Alphabet()
	if alpha == "" {
		return nil, fmt.Errorf("seq: molecule type %v has no alphabet", t)
	}
	res := make([]byte, len(letters))
	for i := 0; i < len(letters); i++ {
		idx := strings.IndexByte(alpha, letters[i])
		if idx < 0 {
			idx = 0
		}
		res[i] = byte(idx)
	}
	return &Sequence{ID: id, Type: t, Residues: res}, nil
}

// Validate checks residue encoding against the alphabet.
func (s *Sequence) Validate() error {
	alpha := s.Type.Alphabet()
	if alpha == "" {
		if len(s.Residues) != 0 {
			return fmt.Errorf("seq %s: %v chains carry no residues", s.ID, s.Type)
		}
		return nil
	}
	for i, r := range s.Residues {
		if int(r) >= len(alpha) {
			return fmt.Errorf("seq %s: residue %d code %d exceeds alphabet size %d", s.ID, i, r, len(alpha))
		}
	}
	return nil
}

// ShannonEntropy returns the per-residue Shannon entropy in bits of the
// sequence's composition. Low entropy flags low-complexity sequence (for the
// 20-letter protein alphabet, random sequence approaches log2(20) ≈ 4.32
// bits; poly-Q runs push it toward 0).
func (s *Sequence) ShannonEntropy() float64 {
	if len(s.Residues) == 0 {
		return 0
	}
	counts := make(map[byte]int)
	for _, r := range s.Residues {
		counts[r]++
	}
	n := float64(len(s.Residues))
	var h float64
	for _, c := range counts {
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// LongestRun returns the length of the longest run of a single residue —
// the direct detector for poly-Q style repeats.
func (s *Sequence) LongestRun() int {
	best, cur := 0, 0
	for i, r := range s.Residues {
		if i > 0 && r == s.Residues[i-1] {
			cur++
		} else {
			cur = 1
		}
		if cur > best {
			best = cur
		}
	}
	return best
}

// LowComplexityFraction returns the fraction of residues covered by windows
// whose local entropy falls below threshold bits, using the given window
// size. It is the filter criterion the MSA stage applies (SEG-like).
func (s *Sequence) LowComplexityFraction(window int, threshold float64) float64 {
	n := len(s.Residues)
	if n == 0 || window <= 0 {
		return 0
	}
	if window > n {
		window = n
	}
	covered := make([]bool, n)
	counts := make([]int, 32)
	// A window count c contributes p·log2 p with p = c/window, one of only
	// window values: tabulated once, then summed per position in count order
	// — the sum, bit for bit, that taking the logarithm in place gives.
	term := make([]float64, window+1)
	for c := 1; c <= window; c++ {
		p := float64(c) / float64(window)
		term[c] = p * math.Log2(p)
	}
	// Sliding window with incremental counts.
	distinctEntropy := func() float64 {
		var h float64
		for _, c := range counts {
			if c > 0 {
				h -= term[c]
			}
		}
		return h
	}
	for i := 0; i < window; i++ {
		counts[s.Residues[i]]++
	}
	for start := 0; ; start++ {
		if distinctEntropy() < threshold {
			for i := start; i < start+window; i++ {
				covered[i] = true
			}
		}
		if start+window >= n {
			break
		}
		counts[s.Residues[start]]--
		counts[s.Residues[start+window]]++
	}
	total := 0
	for _, c := range covered {
		if c {
			total++
		}
	}
	return float64(total) / float64(n)
}

// Complexity summarizes the input-sensitivity features the paper identifies:
// entropy, repeat runs, and low-complexity coverage.
type Complexity struct {
	Entropy        float64 // bits per residue
	LongestRun     int
	LowComplexFrac float64
}

// The MSA filter's window and entropy threshold (bits), values chosen so
// that poly-Q stretches are flagged while diverse globular sequence is not.
const (
	LowComplexityWindow = 12
	LowComplexityBits   = 2.2
)

// Complexity computes the summary with the MSA filter's window and threshold.
func (s *Sequence) Complexity() Complexity {
	return Complexity{
		Entropy:        s.ShannonEntropy(),
		LongestRun:     s.LongestRun(),
		LowComplexFrac: s.LowComplexityFraction(LowComplexityWindow, LowComplexityBits),
	}
}

// Generator produces deterministic synthetic sequences.
type Generator struct {
	rng *rng.Source
}

// NewGenerator returns a Generator drawing from src.
func NewGenerator(src *rng.Source) *Generator { return &Generator{rng: src} }

// Random returns a uniformly random sequence of the given type and length.
func (g *Generator) Random(id string, t MoleculeType, length int) *Sequence {
	alpha := t.Alphabet()
	res := make([]byte, length)
	for i := range res {
		res[i] = byte(g.rng.Intn(len(alpha)))
	}
	return &Sequence{ID: id, Type: t, Residues: res}
}

// WithRepeat returns a random sequence of the given length in which a single
// residue repeat run (e.g. poly-Q: residue 'Q') of repeatLen is planted at a
// random offset, mimicking the promo sample's chain A.
func (g *Generator) WithRepeat(id string, t MoleculeType, length, repeatLen int, residue byte) *Sequence {
	s := g.Random(id, t, length)
	if repeatLen > length {
		repeatLen = length
	}
	if repeatLen <= 0 {
		return s
	}
	start := 0
	if length > repeatLen {
		start = g.rng.Intn(length - repeatLen)
	}
	for i := start; i < start+repeatLen; i++ {
		s.Residues[i] = residue
	}
	return s
}

// Mutate returns a copy of src with approximately rate fraction of residues
// substituted uniformly at random — used to plant homologs in synthetic
// databases so profile searches find genuine relatives.
func (g *Generator) Mutate(src *Sequence, id string, rate float64) *Sequence {
	alpha := src.Type.Alphabet()
	res := make([]byte, len(src.Residues))
	copy(res, src.Residues)
	for i := range res {
		if g.rng.Float64() < rate {
			res[i] = byte(g.rng.Intn(len(alpha)))
		}
	}
	return &Sequence{ID: id, Type: src.Type, Residues: res}
}

// Fragment returns a random contiguous fragment of src of the given length
// (clamped to the source length), as database decoys often share local
// segments with queries.
func (g *Generator) Fragment(src *Sequence, id string, length int) *Sequence {
	if length >= len(src.Residues) {
		cp := make([]byte, len(src.Residues))
		copy(cp, src.Residues)
		return &Sequence{ID: id, Type: src.Type, Residues: cp}
	}
	start := g.rng.Intn(len(src.Residues) - length + 1)
	cp := make([]byte, length)
	copy(cp, src.Residues[start:start+length])
	return &Sequence{ID: id, Type: src.Type, Residues: cp}
}

// QIndex is the protein alphabet index of glutamine (Q), the poly-Q residue.
var QIndex = byte(strings.IndexByte(ProteinAlphabet, 'Q'))
