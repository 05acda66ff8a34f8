// Package msa implements AlphaFold3's MSA phase: per-chain homology search
// fan-out (jackhmmer-style iterative protein search, nhmmer-style RNA
// scan) over the reference databases, each scan shard-parallel over at
// most one span per core, followed by alignment stacking and
// featurization. A chain keeps its metering work once, as per-function
// sums at every record boundary; a result credits it across Threads
// workers the way HMMER's --cpu worker threads would split each database,
// and footprint.go turns those workers into a simhw.RunSpec so the paper's
// two platforms can replay it.
package msa

import (
	"fmt"
	"hash/fnv"
	"strings"

	"afsysbench/internal/inputs"
	"afsysbench/internal/seq"
	"afsysbench/internal/seqdb"
)

// DBSet bundles the reference databases the MSA phase searches, mirroring
// the AF3 pipeline's split: protein chains search the protein corpora,
// RNA chains search the nucleotide corpora (paper Section II: nhmmer and
// the 89 GiB RNA database).
type DBSet struct {
	Protein []*seqdb.DB
	RNA     []*seqdb.DB
}

// DBConfig controls synthetic database construction.
type DBConfig struct {
	// Seed namespaces all generated records.
	Seed uint64
	// SeqsPerDB is the synthetic record count per database.
	SeqsPerDB int
	// HomologsPerQuery plants this many relatives of every benchmark chain
	// in each matching database.
	HomologsPerQuery int
}

// DefaultDBConfig returns the standard suite configuration.
func DefaultDBConfig() DBConfig {
	return DBConfig{Seed: 7, SeqsPerDB: 120, HomologsPerQuery: 5}
}

// Modeled (paper-scale) database sizes. The protein corpora follow AF3's
// reduced protein set; the three RNA corpora sum to the paper's 89 GiB RNA
// database.
var dbCatalog = []struct {
	name        string
	t           seq.MoleculeType
	meanLen     int
	lowComplex  float64
	modeledGiB  float64
	description string
}{
	{"uniref_s", seq.Protein, 220, 0.12, 60, "UniRef-like primary protein corpus"},
	{"mgnify_s", seq.Protein, 160, 0.22, 25, "metagenomic protein corpus"},
	{"rnacentral_s", seq.RNA, 300, 0.02, 50, "RNAcentral-like corpus"},
	{"nt_rna_s", seq.RNA, 400, 0.02, 34, "nucleotide RNA corpus"},
	{"rfam_s", seq.RNA, 200, 0.02, 5, "Rfam-like family corpus"},
}

// BuildDBSet generates the synthetic reference databases, planting
// homologs for every MSA-searched chain of the given inputs so searches
// recruit genuine relatives.
func BuildDBSet(samples []*inputs.Input, cfg DBConfig) (*DBSet, error) {
	if cfg.SeqsPerDB <= 0 {
		return nil, fmt.Errorf("msa: SeqsPerDB must be positive, got %d", cfg.SeqsPerDB)
	}
	var protQueries, rnaQueries []*seq.Sequence
	for _, in := range samples {
		for _, c := range in.MSAChains() {
			switch c.Sequence.Type {
			case seq.Protein:
				protQueries = append(protQueries, c.Sequence)
			case seq.RNA:
				rnaQueries = append(rnaQueries, c.Sequence)
			}
		}
	}
	set := &DBSet{}
	for i, entry := range dbCatalog {
		homs := protQueries
		if entry.t == seq.RNA {
			homs = rnaQueries
		}
		db, err := seqdb.Generate(seqdb.Spec{
			Name:             entry.name,
			Type:             entry.t,
			NumSeqs:          cfg.SeqsPerDB,
			MeanLen:          entry.meanLen,
			LowComplexFrac:   entry.lowComplex,
			Homologs:         homs,
			HomologsPerQuery: cfg.HomologsPerQuery,
			Seed:             cfg.Seed + uint64(i)*1000,
		})
		if err != nil {
			return nil, fmt.Errorf("msa: generating %s: %w", entry.name, err)
		}
		// Pin the modeled footprint to the catalog's paper-scale size.
		db.ScaleFactor = entry.modeledGiB * float64(1<<30) / float64(db.SyntheticBytes())
		switch entry.t {
		case seq.Protein:
			set.Protein = append(set.Protein, db)
		case seq.RNA:
			set.RNA = append(set.RNA, db)
		}
	}
	return set, nil
}

// Fingerprint returns a stable identity for the database profile: every
// database's name, molecule type, record count, residue totals, modeled
// footprint and a checksum over the record contents, in catalog order. Two
// profiles that differ in any database — a different corpus build or seed,
// a dropped database, a rescaled footprint — produce different
// fingerprints. The serving layer folds it into its content-addressed
// cache keys so a warm cache can never hand results across incompatible
// database configurations.
func (s *DBSet) Fingerprint() string {
	h := fnv.New64a()
	var b strings.Builder
	for _, db := range append(append([]*seqdb.DB{}, s.Protein...), s.RNA...) {
		h.Reset()
		for _, sq := range db.Seqs {
			h.Write([]byte(sq.ID))
			h.Write([]byte{0})
			h.Write(sq.Residues)
		}
		fmt.Fprintf(&b, "%s|%d|%d|%d|%d|%016x;",
			db.Name, db.Type, len(db.Seqs), db.TotalResidues(), db.ModeledBytes(), h.Sum64())
	}
	return b.String()
}

// For returns the databases a chain of the given type searches.
func (s *DBSet) For(t seq.MoleculeType) []*seqdb.DB {
	switch t {
	case seq.Protein:
		return s.Protein
	case seq.RNA, seq.DNA:
		return s.RNA
	default:
		return nil
	}
}

// ModeledBytes sums the paper-scale footprint of all databases.
func (s *DBSet) ModeledBytes() int64 {
	var total int64
	for _, db := range s.Protein {
		total += db.ModeledBytes()
	}
	for _, db := range s.RNA {
		total += db.ModeledBytes()
	}
	return total
}
