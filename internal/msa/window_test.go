package msa

import (
	"bytes"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
	"afsysbench/internal/seqdb"
)

// TestWindowedSeedsStayRows covers the seed lane's other path, which no
// suite input reaches: a nucleotide chain against a database holding a
// record longer than longTargetThreshold, which hmmer scans in windows.
// That record's seed work is one event per window, so it lands in the
// chain's seed_filter sums and its probe entry is 0, while every other
// record keeps a probe count and no row. Merged at 1, 2 and 8 threads the
// workers' ledgers are the shard oracle's, which credits every scaled seed
// event; and the chain survives encode → decode → encode byte for byte.
func TestWindowedSeedsStayRows(t *testing.T) {
	g := seq.NewGenerator(rng.New(77))
	query := g.Random("query", seq.RNA, 120)
	db, err := seqdb.Generate(seqdb.Spec{
		Name: "long_rna", Type: seq.RNA, NumSeqs: 12, MeanLen: 200,
		Homologs: []*seq.Sequence{query}, HomologsPerQuery: 2, Seed: 78, ScaleFactor: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A record past hmmer's long-target threshold for this query (1 024
	// residues), with the query planted in its middle so its windows seed
	// and align.
	long := g.Random("long_rna|chrom@sp01", seq.RNA, 4096)
	copy(long.Residues[len(long.Residues)/2:], query.Residues)
	const at = 3
	db.Seqs = append(db.Seqs[:at], append([]*seq.Sequence{long}, db.Seqs[at:]...)...)
	other, err := seqdb.Generate(seqdb.Spec{Name: "short_rna", Type: seq.RNA, NumSeqs: 9, MeanLen: 150, Seed: 79, ScaleFactor: 500})
	if err != nil {
		t.Fatal(err)
	}
	set := &DBSet{RNA: []*seqdb.DB{db, other}}
	in := &inputs.Input{Name: "windowed", Chains: []inputs.Chain{{IDs: []string{"R"}, Sequence: query}}}

	store := &orderedChainCache{}
	fresh, err := Run(in, Options{Threads: 1, DBs: set, ChainCache: store.fetch})
	if err != nil {
		t.Fatal(err)
	}
	d := store.chains[0].d
	if d.cr.Scanned != len(db.Seqs)+len(other.Seqs) || len(d.probes) != d.cr.Scanned {
		t.Fatalf("%d records scanned, %d probe entries; want %d of each", d.cr.Scanned, len(d.probes), len(db.Seqs)+len(other.Seqs))
	}
	for r, p := range d.probes {
		if (p == 0) != (r == at) {
			t.Fatalf("record %d has probe entry %d; only the windowed record %d should have none", r, p, at)
		}
	}
	var seedRows *funcSums
	for k := range d.sums {
		if d.sums[k].f == metering.SeedFilter {
			seedRows = &d.sums[k]
		}
	}
	if seedRows == nil || len(seedRows.recs) != 1 || seedRows.recs[0] != at || seedRows.total().Events < 2 {
		t.Fatalf("the windowed record's seed work is not its own seed_filter rows: %+v", seedRows)
	}

	for _, threads := range []int{1, 2, 8} {
		o := &shardOracle{workers: newWorkers(threads)}
		res, err := Run(in, Options{Threads: threads, DBs: set, Scatter: o.scatter})
		if err != nil {
			t.Fatal(err)
		}
		if o.windows == 0 {
			t.Fatalf("T%d: the oracle scanned no window", threads)
		}
		if w := sameWorkers(res.Workers, o.workers); w >= 0 {
			t.Fatalf("T%d: worker %d differs from the oracle's", threads, w)
		}
		if w := sameWorkers(fresh.Rethread(threads).Workers, o.workers); w >= 0 {
			t.Fatalf("T%d: worker %d of the re-cut differs from the oracle's", threads, w)
		}
	}

	payload, err := store.chains[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	cc, err := DecodeCachedChain(payload)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := cc.Encode(); err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("the windowed chain re-encodes to %d other bytes (%v)", len(again), err)
	}
}
