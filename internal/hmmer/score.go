// Package hmmer implements the profile hidden Markov model search engine
// behind the MSA phase: profile construction, the k-mer seed prefilter,
// banded Viterbi alignment kernels (calc_band_9 / calc_band_10, named after
// the hot symbols in the paper's function-level profile), Forward scoring
// with Gumbel E-values, a jackhmmer-style iterative protein search, and an
// nhmmer-style windowed nucleotide scan whose quadratic window memory
// reproduces the paper's RNA footprint blowup (Fig. 2).
//
// All kernels perform real dynamic-programming arithmetic on real data and
// simultaneously report metering events so the machine models can replay
// the work on the paper's two platforms.
package hmmer

import (
	"afsysbench/internal/seq"
)

// Substitution scoring. The engine uses additive log-odds scores in
// half-bit-like units stored as float32. The protein matrix is a
// BLOSUM-flavored chemistry-group matrix: identity scores +4..+6 by rarity,
// same-group substitutions +1, cross-group -1..-2. Nucleotides use a
// +3/-2 match/mismatch scheme. The exact values matter less than their
// statistics; E-value calibration absorbs the scale.

// chemistry groups over ProteinAlphabet = "ACDEFGHIKLMNPQRSTVWY"
var proteinGroup = map[byte]int{
	'A': 0, 'G': 0, 'S': 0, 'T': 0, // small
	'C': 1,                         // cysteine
	'D': 2, 'E': 2, 'N': 2, 'Q': 2, // acidic/amide
	'K': 3, 'R': 3, 'H': 3, // basic
	'I': 4, 'L': 4, 'M': 4, 'V': 4, // aliphatic
	'F': 5, 'W': 5, 'Y': 5, // aromatic
	'P': 6, // proline
}

// Matrix is a residue substitution matrix over an alphabet of size N,
// indexed [a*N+b].
type Matrix struct {
	N      int
	Scores []float32
}

// ProteinMatrix returns the 20x20 protein substitution matrix.
func ProteinMatrix() *Matrix {
	n := len(seq.ProteinAlphabet)
	m := &Matrix{N: n, Scores: make([]float32, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ri, rj := seq.ProteinAlphabet[i], seq.ProteinAlphabet[j]
			var s float32
			switch {
			case i == j:
				s = 4
				if proteinGroup[ri] == 1 || proteinGroup[ri] == 5 || ri == 'W' {
					s = 6 // rare residues score their identity higher
				}
			case proteinGroup[ri] == proteinGroup[rj]:
				s = 1
			default:
				s = -1.5
			}
			m.Scores[i*n+j] = s
		}
	}
	return m
}

// NucleotideMatrix returns the 4x4 matrix shared by DNA and RNA.
func NucleotideMatrix() *Matrix {
	const n = 4
	m := &Matrix{N: n, Scores: make([]float32, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				m.Scores[i*n+j] = 3
			} else {
				m.Scores[i*n+j] = -2
			}
		}
	}
	return m
}

// MatrixFor returns the substitution matrix for a molecule type, or nil for
// types without an alphabet.
func MatrixFor(t seq.MoleculeType) *Matrix {
	switch t {
	case seq.Protein:
		return ProteinMatrix()
	case seq.DNA, seq.RNA:
		return NucleotideMatrix()
	default:
		return nil
	}
}

// Gap penalties in score units. Affine: open + extend per residue.
const (
	gapOpen   float32 = -6
	gapExtend float32 = -1
)
