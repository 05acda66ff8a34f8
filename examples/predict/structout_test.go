package main

import (
	"bytes"
	"strings"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
	"afsysbench/internal/tensor"
)

func miniInput(t *testing.T) *inputs.Input {
	t.Helper()
	g := seq.NewGenerator(rng.New(1))
	in := &inputs.Input{
		Name: "mini",
		Chains: []inputs.Chain{
			{IDs: []string{"A"}, Sequence: g.Random("p", seq.Protein, 3)},
			{IDs: []string{"R"}, Sequence: g.Random("r", seq.RNA, 2)},
		},
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func coordsFor(tokens, apt int) *tensor.Tensor {
	c := tensor.New(tokens*apt, 3)
	for i := range c.Data {
		c.Data[i] = float32(i) * 0.25
	}
	return c
}

func TestFromCoordsMapping(t *testing.T) {
	in := miniInput(t)
	const apt = 2
	conf := []float64{0.9, 0.8, 0.7, 0.6, 0.5}
	atoms, err := FromCoords(coordsFor(5, apt), in, apt, conf)
	if err != nil {
		t.Fatal(err)
	}
	if len(atoms) != 10 {
		t.Fatalf("atoms = %d, want 10", len(atoms))
	}
	// First chain: 3 protein residues, chain A, CA representative atoms.
	if atoms[0].ChainID != 'A' || atoms[0].Name != "CA" || atoms[0].ResSeq != 1 {
		t.Errorf("first atom wrong: %+v", atoms[0])
	}
	if atoms[1].Name != "X1" {
		t.Errorf("second per-token atom name: %q", atoms[1].Name)
	}
	// RNA chain: C1' representative and single-letter residue names.
	rna := atoms[6]
	if rna.ChainID != 'R' || rna.Name != "C1'" || len(rna.ResName) != 1 {
		t.Errorf("RNA atom wrong: %+v", rna)
	}
	// Confidence in the B-factor, per token.
	if atoms[0].BFactor != 90 || atoms[6].BFactor != 60 {
		t.Errorf("confidence mapping wrong: %v %v", atoms[0].BFactor, atoms[6].BFactor)
	}
	// Serials increase monotonically.
	for i := 1; i < len(atoms); i++ {
		if atoms[i].Serial != atoms[i-1].Serial+1 {
			t.Fatal("serials not sequential")
		}
	}
}

func TestFromCoordsErrors(t *testing.T) {
	in := miniInput(t)
	if _, err := FromCoords(tensor.New(4, 2), in, 2, nil); err == nil {
		t.Error("bad coord shape accepted")
	}
	if _, err := FromCoords(coordsFor(4, 2), in, 2, nil); err == nil {
		t.Error("token/atom mismatch accepted")
	}
	if _, err := FromCoords(coordsFor(5, 2), in, 2, []float64{1}); err == nil {
		t.Error("confidence length mismatch accepted")
	}
}

func TestWritePDBFormat(t *testing.T) {
	in := miniInput(t)
	atoms, err := FromCoords(coordsFor(5, 1), in, 1, []float64{0.95, 0.9, 0.85, 0.8, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePDB(&buf, atoms); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 5 ATOM + 1 TER (chain A -> R) + END.
	if len(lines) != 7 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "ATOM  ") {
		t.Errorf("record prefix wrong: %q", lines[0])
	}
	// Fixed-column checks: x coordinate field is columns 31-38.
	if len(lines[0]) < 66 {
		t.Fatalf("ATOM record too short: %q", lines[0])
	}
	if lines[3] != "TER" {
		t.Errorf("TER between chains missing, got %q", lines[3])
	}
	if lines[6] != "END" {
		t.Error("END missing")
	}
	if !strings.Contains(lines[0], "95.00") {
		t.Errorf("B-factor missing from %q", lines[0])
	}
}

func TestMeanConfidence(t *testing.T) {
	atoms := []Atom{
		{Name: "CA", BFactor: 80},
		{Name: "X1", BFactor: 0}, // non-representative atoms excluded
		{Name: "C1'", BFactor: 60},
	}
	if got := MeanConfidence(atoms); got != 70 {
		t.Errorf("mean confidence = %v, want 70", got)
	}
	if MeanConfidence(nil) != 0 {
		t.Error("empty mean should be 0")
	}
}
