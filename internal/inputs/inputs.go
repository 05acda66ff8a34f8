// Package inputs defines the AlphaFold3 JSON input schema and the benchmark
// samples of the paper's Table II. The real PDB entries (2PV7, 7RCE, 1YY9,
// the promoter complex, 6QNR) are proprietary-free, but their sequences are
// irrelevant to the characterization — only chain counts, chain types,
// total residue counts and sequence-complexity statistics matter. The
// samples here are deterministic synthetic assemblies matching those
// properties, including the poly-glutamine repeat in promo's chain A that
// stresses the MSA stage (paper Observation 2).
package inputs

import (
	"encoding/json"
	"fmt"
	"io"

	"afsysbench/internal/seq"
)

// Chain is one molecular chain of an input.
type Chain struct {
	// IDs lists the chain identifiers (AF3 groups identical chains).
	IDs      []string
	Sequence *seq.Sequence
}

// Copies returns how many copies of this chain the assembly contains.
func (c Chain) Copies() int { return len(c.IDs) }

// Input is one biomolecular assembly in AF3 terms.
type Input struct {
	Name   string
	Seeds  []int
	Chains []Chain
}

// TotalResidues returns the summed residue count over all chain copies —
// the "Seq. Length" column of Table II and the N of the inference model.
func (in *Input) TotalResidues() int {
	var n int
	for _, c := range in.Chains {
		n += c.Sequence.Len() * c.Copies()
	}
	return n
}

// ChainCount returns the total number of chain copies.
func (in *Input) ChainCount() int {
	var n int
	for _, c := range in.Chains {
		n += c.Copies()
	}
	return n
}

// MSAChains returns the chains that go through the MSA phase (protein and
// RNA; DNA and ligands are excluded).
func (in *Input) MSAChains() []Chain {
	var out []Chain
	for _, c := range in.Chains {
		if c.Sequence.Type.SearchesMSA() {
			out = append(out, c)
		}
	}
	return out
}

// HasRNA reports whether any chain is RNA (triggers nhmmer and its memory
// behavior).
func (in *Input) HasRNA() bool {
	for _, c := range in.Chains {
		if c.Sequence.Type == seq.RNA {
			return true
		}
	}
	return false
}

// MaxRNALength returns the longest RNA chain length (0 if none) — the
// input feature that drives the Figure 2 memory curve.
func (in *Input) MaxRNALength() int {
	max := 0
	for _, c := range in.Chains {
		if c.Sequence.Type == seq.RNA && c.Sequence.Len() > max {
			max = c.Sequence.Len()
		}
	}
	return max
}

// MaxProteinLength returns the longest protein chain length (0 if none).
func (in *Input) MaxProteinLength() int {
	max := 0
	for _, c := range in.Chains {
		if c.Sequence.Type == seq.Protein && c.Sequence.Len() > max {
			max = c.Sequence.Len()
		}
	}
	return max
}

// MaxLowComplexity returns the highest low-complexity fraction over the
// MSA-searched chains — the feature that separates promo from 1YY9.
func (in *Input) MaxLowComplexity() float64 {
	var worst float64
	for _, c := range in.MSAChains() {
		if f := c.Sequence.LowComplexityFraction(seq.LowComplexityWindow, seq.LowComplexityBits); f > worst {
			worst = f
		}
	}
	return worst
}

// Validate checks structural consistency.
func (in *Input) Validate() error {
	if in.Name == "" {
		return fmt.Errorf("inputs: missing name")
	}
	if len(in.Chains) == 0 {
		return fmt.Errorf("inputs %s: no chains", in.Name)
	}
	seen := make(map[string]bool)
	for i, c := range in.Chains {
		if len(c.IDs) == 0 {
			return fmt.Errorf("inputs %s: chain %d has no IDs", in.Name, i)
		}
		for _, id := range c.IDs {
			if seen[id] {
				return fmt.Errorf("inputs %s: duplicate chain id %q", in.Name, id)
			}
			seen[id] = true
		}
		if c.Sequence == nil || c.Sequence.Len() == 0 {
			return fmt.Errorf("inputs %s: chain %d empty", in.Name, i)
		}
		if err := c.Sequence.Validate(); err != nil {
			return fmt.Errorf("inputs %s: %w", in.Name, err)
		}
	}
	return nil
}

// JSON wire format — the AF3 input schema subset the suite supports.

type jsonInput struct {
	Name       string          `json:"name"`
	ModelSeeds []int           `json:"modelSeeds"`
	Sequences  []jsonChainWrap `json:"sequences"`
}

type jsonChainWrap struct {
	Protein *jsonChain `json:"protein"`
	DNA     *jsonChain `json:"dna"`
	RNA     *jsonChain `json:"rna"`
}

type jsonChain struct {
	ID       []string `json:"id"`
	Sequence string   `json:"sequence"`
}

// Read parses an AF3-format JSON input.
func Read(r io.Reader) (*Input, error) {
	var raw jsonInput
	dec := json.NewDecoder(r)
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("inputs: decoding: %w", err)
	}
	in := &Input{Name: raw.Name, Seeds: raw.ModelSeeds}
	for i, w := range raw.Sequences {
		var jc *jsonChain
		var t seq.MoleculeType
		switch {
		case w.Protein != nil:
			jc, t = w.Protein, seq.Protein
		case w.DNA != nil:
			jc, t = w.DNA, seq.DNA
		case w.RNA != nil:
			jc, t = w.RNA, seq.RNA
		default:
			return nil, fmt.Errorf("inputs: sequence entry %d has no recognized chain type", i)
		}
		id := "?"
		if len(jc.ID) > 0 {
			id = jc.ID[0]
		}
		s, err := seq.FromLetters(fmt.Sprintf("%s_%s", raw.Name, id), t, jc.Sequence)
		if err != nil {
			return nil, err
		}
		in.Chains = append(in.Chains, Chain{IDs: jc.ID, Sequence: s})
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}
