package hmmer_test

import (
	"testing"

	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
	"afsysbench/internal/msa"
	"afsysbench/internal/seq"
)

// TestForwardHitListsOnSuiteData is the hit-list contract on the data every
// request and figure runs on, not on generated test inputs: for each
// MSA-searched chain of 2PV7 (protein) and 6QNR (RNA plus nine proteins),
// every database of the chain's type is scanned through the product cascade
// and through the reference kernels (ReferenceScanRecords), round
// by round as msa searches it — the query-built profile, then for proteins
// the profile rebuilt from the recruited hits. The lists must be the same
// hits in the same order with only the Forward-derived floats inside their
// tolerance: that no threshold or sort flipped is what keeps every digest
// and golden where the log-space kernel left it.
func TestForwardHitListsOnSuiteData(t *testing.T) {
	dbs, err := msa.BuildDBSet(inputs.Samples(), msa.DefaultDBConfig())
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := 0 // scans through an alignment-built profile
	for _, name := range []string{"2PV7", "6QNR"} {
		in, err := inputs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, chain := range in.MSAChains() {
			query := chain.Sequence
			profile, err := hmmer.BuildFromQuery(query)
			if err != nil {
				t.Fatal(err)
			}
			for round := 1; ; round++ {
				var recruited []hmmer.Hit
				for _, db := range dbs.For(query.Type) {
					opts := hmmer.SearchOptions{DBFootprint: uint64(db.ModeledBytes())}
					opt, err := hmmer.ScanRecords(profile, query, &hmmer.SliceSource{Seqs: db.Seqs}, db.TotalResidues(), opts, metering.Nop{})
					if err != nil {
						t.Fatal(err)
					}
					ref := hmmer.ReferenceScanRecords(profile, query, &hmmer.SliceSource{Seqs: db.Seqs}, db.TotalResidues())
					if len(opt.Hits) == 0 {
						t.Errorf("%s %s round %d on %s: no hits; the comparison is vacuous", name, query.ID, round, db.Name)
					}
					if !hmmer.SameHitsAsReference(opt.Hits, ref.Hits) {
						t.Errorf("%s %s round %d on %s: hit lists diverge:\nopt=%+v\nref=%+v", name, query.ID, round, db.Name, opt.Hits, ref.Hits)
					}
					recruited = append(recruited, opt.Hits...)
				}
				rows := hmmer.BuildGappedAlignment(query, recruited, 1e-3)
				if round == 2 || query.Type != seq.Protein || len(rows) <= 1 {
					break // nucleotide search is one pass; nothing recruited ends a protein search
				}
				if profile, err = hmmer.BuildFromAlignment(query.ID, query.Type, rows); err != nil {
					t.Fatal(err)
				}
				rebuilt++
			}
		}
	}
	if rebuilt == 0 {
		t.Error("no chain recruited hits: the alignment-built profile was never compared")
	}
}
