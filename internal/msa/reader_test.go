package msa

import (
	"strings"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
	"afsysbench/internal/seqdb"
)

// TestReaderLaneMatchesParentEvents: for every database of the suite's
// set and every record, the lane BuildDBSet built holds exactly the three
// events a scan's buffering layer recorded for that record
// (parentReaderEvents), each scaled through metering.Scaled at the
// database's scale, one event per function and nothing else.
func TestReaderLaneMatchesParentEvents(t *testing.T) {
	set := dbs(t)
	for _, db := range append(append([]*seqdb.DB(nil), set.Protein...), set.RNA...) {
		lane := set.lanes[db]
		if lane == nil || len(lane.cum) != len(db.Seqs)+1 || lane.cum[0] != [len(readerFuncs)]metering.Tally{} {
			t.Fatalf("%s: BuildDBSet built no lane of %d records from zero", db.Name, len(db.Seqs))
		}
		for r, rec := range db.Seqs {
			var want metering.Accumulator
			m := metering.Scaled(credited{&want}, db.ScaleFactor*workCalibration)
			for _, ev := range parentReaderEvents(uint64(rec.Len()), uint64(db.ModeledBytes())) {
				m.Record(ev)
			}
			var got metering.Ledger
			for k, f := range readerFuncs {
				got[f] = lane.cum[r+1][k].Sub(lane.cum[r][k])
			}
			if got != want.Credit {
				t.Fatalf("%s record %d: the lane holds %v, the scan recorded %v", db.Name, r, got, want.Credit)
			}
		}
	}
}

// TestCreditRefusesAnotherDBSet: a chain is credited with its databases'
// reader lanes, so a chain replayed from the chain cache, through the
// codec, against a set whose databases for its
// type are not the ones it scanned, by name, by record count, by number or
// by scale, fails the run; against the same databases in any set, its
// own or one derived from it or built around them, it is credited as a
// fresh search would be.
func TestCreditRefusesAnotherDBSet(t *testing.T) {
	in, err := inputs.ByName("2PV7")
	if err != nil {
		t.Fatal(err)
	}
	set := dbs(t)
	fresh, err := Run(in, Options{Threads: 3, DBs: set})
	if err != nil {
		t.Fatal(err)
	}
	mem := &mapChainCache{entries: make(map[string]*CachedChain), viaCodec: true}
	if _, err := Run(in, Options{Threads: 1, DBs: set, ChainCache: mem.fetch}); err != nil {
		t.Fatal(err)
	}
	a, b := set.Protein[0], set.Protein[1]
	with := func(f func(db *seqdb.DB)) *seqdb.DB {
		c := *a
		f(&c)
		return &c
	}
	for _, tc := range []struct {
		name string
		dbs  *DBSet
		want string // "" for a set it must be credited against
	}{
		{"its own set", set, ""},
		{"a set derived from it", set.Keep(func(*seqdb.DB) bool { return true }), ""},
		{"a set built around its databases", &DBSet{Protein: set.Protein, RNA: set.RNA}, ""},
		{"a renamed database", &DBSet{Protein: []*seqdb.DB{with(func(db *seqdb.DB) { db.Name = "other" }), b}}, "scanned uniref_s"},
		{"a database of fewer records", &DBSet{Protein: []*seqdb.DB{with(func(db *seqdb.DB) { db.Seqs = db.Seqs[1:] }), b}}, "scanned uniref_s"},
		{"a dropped database", &DBSet{Protein: []*seqdb.DB{b}}, "scanned 2 databases"},
		{"the databases swapped", &DBSet{Protein: []*seqdb.DB{b, a}}, "scanned uniref_s"},
		{"a rescaled database", &DBSet{Protein: []*seqdb.DB{with(func(db *seqdb.DB) { db.ScaleFactor *= 2 }), b}}, "reader instructions"},
	} {
		res, err := Run(in, Options{Threads: 3, DBs: tc.dbs, ChainCache: mem.fetch})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want == "" && sameWorkers(res.Workers, fresh.Workers) >= 0:
			t.Errorf("%s: the replay credits other work than a fresh search", tc.name)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got error %v, want one saying %q", tc.name, err, tc.want)
		}
	}
}
