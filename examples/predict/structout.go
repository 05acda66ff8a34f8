package main

// Structure output in PDB format: the user-facing artifact of the
// inference phase. Coordinates come from the diffusion module's sampled
// (atoms × 3) tensor; per-token confidence lands in the B-factor column,
// the convention AF2/AF3 use for pLDDT.

import (
	"bufio"
	"fmt"
	"io"

	"afsysbench/internal/inputs"
	"afsysbench/internal/seq"
	"afsysbench/internal/tensor"
)

// Atom is one ATOM record.
type Atom struct {
	Serial  int
	Name    string // atom name, e.g. "CA"
	ResName string // residue name, e.g. "ALA"
	ChainID byte
	ResSeq  int
	X, Y, Z float64
	BFactor float64
}

// three-letter residue names for the protein alphabet (index-aligned with
// seq.ProteinAlphabet).
var proteinResNames = map[byte]string{
	'A': "ALA", 'C': "CYS", 'D': "ASP", 'E': "GLU", 'F': "PHE",
	'G': "GLY", 'H': "HIS", 'I': "ILE", 'K': "LYS", 'L': "LEU",
	'M': "MET", 'N': "ASN", 'P': "PRO", 'Q': "GLN", 'R': "ARG",
	'S': "SER", 'T': "THR", 'V': "VAL", 'W': "TRP", 'Y': "TYR",
}

// resName maps a residue to its PDB residue name.
func resName(t seq.MoleculeType, letter byte) string {
	switch t {
	case seq.Protein:
		if n, ok := proteinResNames[letter]; ok {
			return n
		}
		return "UNK"
	case seq.DNA:
		return "D" + string(letter)
	case seq.RNA:
		return string(letter)
	default:
		return "UNK"
	}
}

// atomNames are the per-token pseudo-atom names (first is the
// representative CA/C1' atom).
func atomName(t seq.MoleculeType, k int) string {
	if k == 0 {
		if t == seq.Protein {
			return "CA"
		}
		return "C1'"
	}
	return fmt.Sprintf("X%d", k)
}

// FromCoords converts a sampled coordinate tensor into ATOM records. Tokens
// map to chain residues in input order (each chain copy contributes its
// sequence length of tokens); confidence (per token, optional) fills the
// B-factor column scaled to 0–100.
func FromCoords(coords *tensor.Tensor, in *inputs.Input, atomsPerToken int, confidence []float64) ([]Atom, error) {
	if coords.Dims() != 2 || coords.Shape[1] != 3 {
		return nil, fmt.Errorf("pdb: coords must be (atoms x 3), got %v", coords.Shape)
	}
	tokens := in.TotalResidues()
	if coords.Shape[0] != tokens*atomsPerToken {
		return nil, fmt.Errorf("pdb: %d atoms for %d tokens x %d apt", coords.Shape[0], tokens, atomsPerToken)
	}
	if confidence != nil && len(confidence) != tokens {
		return nil, fmt.Errorf("pdb: confidence length %d != tokens %d", len(confidence), tokens)
	}
	var atoms []Atom
	serial := 1
	token := 0
	for _, chain := range in.Chains {
		letters := chain.Sequence.Letters()
		for _, id := range chain.IDs {
			chainID := id[0]
			for ri := 0; ri < chain.Sequence.Len(); ri++ {
				b := 0.0
				if confidence != nil {
					b = 100 * confidence[token]
				}
				for k := 0; k < atomsPerToken; k++ {
					atomIdx := token*atomsPerToken + k
					atoms = append(atoms, Atom{
						Serial:  serial,
						Name:    atomName(chain.Sequence.Type, k),
						ResName: resName(chain.Sequence.Type, letters[ri]),
						ChainID: chainID,
						ResSeq:  ri + 1,
						X:       float64(coords.At(atomIdx, 0)),
						Y:       float64(coords.At(atomIdx, 1)),
						Z:       float64(coords.At(atomIdx, 2)),
						BFactor: b,
					})
					serial++
				}
				token++
			}
		}
	}
	return atoms, nil
}

// WritePDB writes ATOM records (fixed-column PDB format) with TER records
// between chains and a trailing END.
func WritePDB(w io.Writer, atoms []Atom) error {
	bw := bufio.NewWriter(w)
	var prevChain byte
	for i, a := range atoms {
		if i > 0 && a.ChainID != prevChain {
			if _, err := fmt.Fprintln(bw, "TER"); err != nil {
				return err
			}
		}
		prevChain = a.ChainID
		// Columns per the PDB 3.3 ATOM record specification.
		_, err := fmt.Fprintf(bw, "ATOM  %5d %-4s %3s %c%4d    %8.3f%8.3f%8.3f%6.2f%6.2f\n",
			a.Serial%100000, clamp4(a.Name), a.ResName, a.ChainID, a.ResSeq%10000,
			a.X, a.Y, a.Z, 1.0, a.BFactor)
		if err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "END"); err != nil {
		return err
	}
	return bw.Flush()
}

func clamp4(s string) string {
	if len(s) > 4 {
		return s[:4]
	}
	return s
}

// MeanConfidence returns the average B-factor of the representative atoms
// (the file's overall pLDDT-style score).
func MeanConfidence(atoms []Atom) float64 {
	var sum float64
	n := 0
	for _, a := range atoms {
		if a.Name == "CA" || a.Name == "C1'" {
			sum += a.BFactor
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
