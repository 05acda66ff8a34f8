// Package seqdb synthesizes the reference sequence databases the MSA phase
// searches. The real AlphaFold3 pipeline scans UniRef/MGnify-scale
// protein corpora (tens of GiB) and Rfam/RNACentral-scale nucleotide corpora
// (the paper cites an 89 GiB RNA database); here each corpus is generated
// deterministically at MiB scale and carries a ScaleFactor that maps its
// synthetic size onto the paper-scale footprint for the storage and
// page-cache models.
//
// A generated database is not pure noise: it contains planted homologs of
// the benchmark chains (so profile searches find genuine relatives, as real
// searches do), fragment decoys (partial local matches), and a configurable
// fraction of low-complexity records (compositionally biased sequence that
// makes poly-Q queries explode with ambiguous partial hits — the promo
// sample's failure mode).
package seqdb

import (
	"fmt"

	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
)

// DB is an in-memory reference database plus the metadata the system models
// need (total on-disk bytes at synthetic and paper scale).
type DB struct {
	Name string
	Type seq.MoleculeType
	Seqs []*seq.Sequence

	// ScaleFactor maps synthetic bytes to modeled paper-scale bytes: the
	// storage and page-cache simulators treat the database as occupying
	// SyntheticBytes()*ScaleFactor bytes of DRAM/disk.
	ScaleFactor float64
}

// Spec describes a database to generate.
type Spec struct {
	Name    string
	Type    seq.MoleculeType
	NumSeqs int
	// MeanLen is the mean record length; lengths are drawn from an
	// exponential around it with a floor of minLen.
	MeanLen int
	// LowComplexFrac is the fraction of records generated with strongly
	// biased composition (repeat-rich), the bait for poly-Q queries.
	LowComplexFrac float64
	// Homologs lists query chains to plant relatives of. For each chain,
	// HomologsPerQuery mutated copies are inserted at divergence rates
	// spread over [0.05, 0.5].
	Homologs         []*seq.Sequence
	HomologsPerQuery int
	// ScaleFactor for the generated DB (see DB.ScaleFactor). Zero means 1.
	ScaleFactor float64
	Seed        uint64
}

// minLen is the floor on generated record lengths.
const minLen = 20

// Generate builds a database from the spec. Generation is deterministic in
// Spec.Seed and the spec contents.
func Generate(spec Spec) (*DB, error) {
	if spec.NumSeqs < 0 {
		return nil, fmt.Errorf("seqdb: negative NumSeqs %d", spec.NumSeqs)
	}
	if spec.Type.Alphabet() == "" {
		return nil, fmt.Errorf("seqdb: molecule type %v has no alphabet", spec.Type)
	}
	if spec.MeanLen <= 0 {
		return nil, fmt.Errorf("seqdb: MeanLen must be positive, got %d", spec.MeanLen)
	}
	scale := spec.ScaleFactor
	if scale == 0 {
		scale = 1
	}
	src := rng.New(spec.Seed)
	gen := seq.NewGenerator(src.Split(1))
	lenRng := src.Split(2)
	kindRng := src.Split(3)

	db := &DB{Name: spec.Name, Type: spec.Type, ScaleFactor: scale}
	db.Seqs = make([]*seq.Sequence, 0, spec.NumSeqs+len(spec.Homologs)*spec.HomologsPerQuery)

	drawLen := func() int {
		l := int(float64(spec.MeanLen) * lenRng.ExpFloat64())
		if l < minLen {
			l = minLen
		}
		return l
	}

	for i := 0; i < spec.NumSeqs; i++ {
		id := fmt.Sprintf("%s|%06d@sp%02d", spec.Name, i, kindRng.Intn(speciesPool))
		l := drawLen()
		var s *seq.Sequence
		if kindRng.Float64() < spec.LowComplexFrac {
			s = lowComplexity(gen, id, spec.Type, l)
		} else {
			s = gen.Random(id, spec.Type, l)
		}
		db.Seqs = append(db.Seqs, s)
	}

	// Plant homologs at a ladder of divergence rates so iterative searches
	// recruit progressively more distant relatives. Homolog h of every
	// query carries species tag sp<h>: relatives of different chains from
	// the same organism, which is what cross-chain MSA pairing matches.
	for qi, q := range spec.Homologs {
		if q.Type != spec.Type {
			continue
		}
		for h := 0; h < spec.HomologsPerQuery; h++ {
			rate := 0.05 + 0.45*float64(h)/float64(maxInt(spec.HomologsPerQuery-1, 1))
			id := fmt.Sprintf("%s|hom%02d_%02d@sp%02d", spec.Name, qi, h, h)
			db.Seqs = append(db.Seqs, gen.Mutate(q, id, rate))
		}
		// One fragment decoy per query: a local-only match.
		fragLen := q.Len() / 3
		if fragLen >= minLen {
			id := fmt.Sprintf("%s|frag%02d@sp%02d", spec.Name, qi, speciesPool-1)
			db.Seqs = append(db.Seqs, gen.Fragment(q, id, fragLen))
		}
	}
	return db, nil
}

// speciesPool is the number of distinct organism tags synthetic records
// draw from.
const speciesPool = 24

// SpeciesOf extracts the organism tag from a record identifier (the part
// after '@'), or "" when untagged.
func SpeciesOf(id string) string {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '@' {
			return id[i+1:]
		}
	}
	return ""
}

// lowComplexity emits a record dominated by short repeats over a tiny
// residue subset (2–3 letters), including glutamine for protein so that
// poly-Q queries collide with it.
func lowComplexity(g *seq.Generator, id string, t seq.MoleculeType, length int) *seq.Sequence {
	s := g.Random(id, t, length)
	// Overwrite with runs drawn from a restricted palette.
	palette := []byte{0, 1}
	if t == seq.Protein {
		palette = []byte{seq.QIndex, 0, 4} // Q, A, F
	}
	i := 0
	pi := 0
	for i < length {
		run := 4 + (i*7)%9 // deterministic pseudo-run lengths 4..12
		r := palette[pi%len(palette)]
		pi++
		for j := 0; j < run && i < length; j++ {
			s.Residues[i] = r
			i++
		}
	}
	return s
}

// NumSeqs returns the record count.
func (db *DB) NumSeqs() int { return len(db.Seqs) }

// TotalResidues returns the summed record lengths.
func (db *DB) TotalResidues() int {
	var n int
	for _, s := range db.Seqs {
		n += s.Len()
	}
	return n
}

// The modeled on-disk layout the storage model prices — no file is ever
// written in it: a header (magic, uint16 version, uint8 molecule type,
// uint32 record count, float64 scale factor, uint16 name length) followed by
// the name, then per record a uint16 id length, the id, a uint32 residue
// count and one byte per residue. Both values feed every modeled disk second
// and golden through SyntheticBytes and must not change.
const (
	headerSize     = 4 + 2 + 1 + 4 + 8 + 2
	recordOverhead = 2 + 4
)

// SyntheticBytes returns the size of the database in the modeled on-disk
// layout (header + per-record overhead + residues).
func (db *DB) SyntheticBytes() int64 {
	n := int64(headerSize + len(db.Name))
	for _, s := range db.Seqs {
		n += recordOverhead + int64(len(s.ID)) + int64(s.Len())
	}
	return n
}

// ModeledBytes returns the paper-scale footprint used by the storage and
// page-cache models.
func (db *DB) ModeledBytes() int64 {
	return int64(float64(db.SyntheticBytes()) * db.ScaleFactor)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
