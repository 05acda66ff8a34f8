package inputs

import (
	"fmt"

	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
)

// Table II of the paper. Each constructor returns a deterministic synthetic
// assembly with the published chain structure and total residue count.
//
//	2PV7   protein (2 chains, symmetric)      484   low
//	7RCE   protein (1) + DNA (2)              306   low-mid
//	1YY9   protein (3 chains, asymmetric)     881   mid
//	promo  protein (3) + DNA (2), poly-Q      857   mid-high
//	6QNR   protein (9) + RNA (1)            1,395   high

// sampleSeed namespaces the generators so every sample is reproducible.
const sampleSeed = 0xAF3

func gen(tag uint64) *seq.Generator {
	return seq.NewGenerator(rng.New(sampleSeed).Split(tag))
}

// Sample2PV7 is the symmetric two-chain protein benchmark (484 residues).
func Sample2PV7() *Input {
	g := gen(1)
	chain := g.Random("2PV7_A", seq.Protein, 242)
	return &Input{
		Name:   "2PV7",
		Chains: []Chain{{IDs: []string{"A", "B"}, Sequence: chain}},
	}
}

// Sample7RCE is the protein+DNA mixed-type baseline (306 residues).
func Sample7RCE() *Input {
	g := gen(2)
	return &Input{
		Name: "7RCE",
		Chains: []Chain{
			{IDs: []string{"A"}, Sequence: g.Random("7RCE_A", seq.Protein, 230)},
			{IDs: []string{"B"}, Sequence: g.Random("7RCE_B", seq.DNA, 38)},
			{IDs: []string{"C"}, Sequence: g.Random("7RCE_C", seq.DNA, 38)},
		},
	}
}

// Sample1YY9 is the asymmetric three-chain protein complex (881 residues)
// with diverse, high-complexity domains — the control against promo.
func Sample1YY9() *Input {
	g := gen(3)
	return &Input{
		Name: "1YY9",
		Chains: []Chain{
			{IDs: []string{"A"}, Sequence: g.Random("1YY9_A", seq.Protein, 450)},
			{IDs: []string{"B"}, Sequence: g.Random("1YY9_B", seq.Protein, 214)},
			{IDs: []string{"C"}, Sequence: g.Random("1YY9_C", seq.Protein, 217)},
		},
	}
}

// SamplePromo is the promoter complex (857 residues): three protein chains
// and two DNA chains, with a poly-glutamine repeat planted in chain A that
// floods database search with ambiguous partial matches (Observation 2).
func SamplePromo() *Input {
	g := gen(4)
	chainA := g.WithRepeat("promo_A", seq.Protein, 390, 80, seq.QIndex)
	return &Input{
		Name: "promo",
		Chains: []Chain{
			{IDs: []string{"A"}, Sequence: chainA},
			{IDs: []string{"B"}, Sequence: g.Random("promo_B", seq.Protein, 180)},
			{IDs: []string{"C"}, Sequence: g.Random("promo_C", seq.Protein, 187)},
			{IDs: []string{"D"}, Sequence: g.Random("promo_D", seq.DNA, 50)},
			{IDs: []string{"E"}, Sequence: g.Random("promo_E", seq.DNA, 50)},
		},
	}
}

// Sample6QNR is the high-complexity assembly (1,395 residues): nine protein
// chains plus one RNA chain, the sample that forced the desktop DRAM
// upgrade and unified-memory GPU fallback in the paper.
func Sample6QNR() *Input {
	g := gen(5)
	chains := []Chain{
		{IDs: []string{"R"}, Sequence: g.Random("6QNR_R", seq.RNA, 600)},
	}
	// Nine protein chains totaling 795 residues.
	lens := []int{120, 115, 105, 100, 95, 80, 70, 60, 50}
	for i, l := range lens {
		id := string(rune('A' + i))
		chains = append(chains, Chain{
			IDs:      []string{id},
			Sequence: g.Random("6QNR_"+id, seq.Protein, l),
		})
	}
	return &Input{Name: "6QNR", Chains: chains}
}

// table2 lists the five Table II benchmarks in paper order: the one place
// a sample's name is tied to its constructor.
var table2 = []struct {
	name  string
	build func() *Input
}{
	{"2PV7", Sample2PV7},
	{"7RCE", Sample7RCE},
	{"1YY9", Sample1YY9},
	{"promo", SamplePromo},
	{"6QNR", Sample6QNR},
}

// Samples returns the five Table II benchmarks in paper order.
func Samples() []*Input {
	out := make([]*Input, len(table2))
	for i, e := range table2 {
		out[i] = e.build()
	}
	return out
}

// ByName returns a Table II sample or a "ppi-IxJ" screening pair by
// name. Only the named sample is generated: this runs on every request
// the serving layer admits.
func ByName(name string) (*Input, error) {
	if in, isPPI, err := ppiByName(name); isPPI {
		return in, err
	}
	for _, e := range table2 {
		if e.name == name {
			return e.build(), nil
		}
	}
	return nil, fmt.Errorf("inputs: unknown sample %q", name)
}

// RNASweep returns the Figure 2 inputs: ribosomal-complex-like assemblies
// whose RNA chain length sweeps the paper's measured points (621, 935,
// 1135, 1335), each accompanied by two small protein chains (which the
// paper shows have negligible memory impact).
func RNASweep() []*Input {
	lengths := []int{621, 935, 1135, 1335}
	out := make([]*Input, 0, len(lengths))
	for i, l := range lengths {
		g := gen(uint64(100 + i))
		name := fmt.Sprintf("7K00_rna%d", l)
		out = append(out, &Input{
			Name: name,
			Chains: []Chain{
				{IDs: []string{"R"}, Sequence: g.Random(name+"_R", seq.RNA, l)},
				{IDs: []string{"P"}, Sequence: g.Random(name+"_P", seq.Protein, 120)},
				{IDs: []string{"Q"}, Sequence: g.Random(name+"_Q", seq.Protein, 100)},
			},
		})
	}
	return out
}
