package msa

import (
	"fmt"

	"afsysbench/internal/hmmer"
	"afsysbench/internal/metering"
	"afsysbench/internal/seqdb"
)

// readerFuncs are the reader lane's functions, in hmmer.ReaderEvents'
// order: HMMER's serialized reader, whose work per record is a function of
// the record and its database alone.
var readerFuncs = [...]metering.Func{metering.CopyToIter, metering.AddBuf, metering.SeeBuf}

// readerLane is one database's reader lane as a prefix table: cum[r][k] is
// readerFuncs[k]'s work over the records before r. Each record's work is
// the three events hmmer.ReaderEvents gives for it, each scaled as a
// scan's events are (metering.ScaleEvent at ScaleFactor ×
// workCalibration), one event per function. A span's lane is the
// difference of two rows, so a chain keeps none of it.
type readerLane struct {
	cum [][len(readerFuncs)]metering.Tally
}

func newReaderLane(db *seqdb.DB) *readerLane {
	scale := db.ScaleFactor * workCalibration
	footprint := uint64(db.ModeledBytes())
	cum := make([][len(readerFuncs)]metering.Tally, len(db.Seqs)+1)
	for r, rec := range db.Seqs {
		cum[r+1] = cum[r]
		for k, ev := range hmmer.ReaderEvents(uint64(len(rec.Residues)), footprint) {
			ev = metering.ScaleEvent(ev, scale)
			cum[r+1][k].AddEvent(&ev)
		}
	}
	return &readerLane{cum: cum}
}

// instructions is the lane's instructions over every record: one scan's.
func (l *readerLane) instructions() uint64 {
	var n uint64
	for _, t := range l.cum[len(l.cum)-1] {
		n += t.Instructions
	}
	return n
}

// times returns t added to itself n times: each counter times n.
func times(t metering.Tally, n uint64) metering.Tally {
	return metering.Tally{Events: t.Events * n, Instructions: t.Instructions * n, Bytes: t.Bytes * n,
		Branches: t.Branches * n, Allocated: t.Allocated * n}
}

// lane returns db's reader lane: the one BuildDBSet built, or, for a
// database of a set built another way, a new one.
func (s *DBSet) lane(db *seqdb.DB) *readerLane {
	if l := s.lanes[db]; l != nil {
		return l
	}
	return newReaderLane(db)
}

// maxScans is how many scans a round may have for a merge to resolve
// their lanes without allocating; the catalog gives one molecule type at
// most three databases.
const maxScans = 4

// appendLanes appends to dst the reader lanes of d's scans in s, in scan
// order. The databases s gives d's molecule type must be the ones d
// scanned — by name and record count, in order — and their lanes must add
// up to the reader work d counts; otherwise crediting d here would credit
// another database's reader lane, so it is an error.
func (s *DBSet) appendLanes(dst []*readerLane, d *chainDelta) ([]*readerLane, error) {
	dbs := s.For(d.cr.Type)
	if len(dbs) != len(d.dbRecs) {
		return dst, fmt.Errorf("msa: chain %s scanned %d databases, the set has %d", d.cr.ChainID, len(d.dbRecs), len(dbs))
	}
	start, records := len(dst), 0
	var work uint64
	for i, db := range dbs {
		if sc := d.dbRecs[i]; db.Name != sc.name || len(db.Seqs) != sc.records {
			return dst[:start], fmt.Errorf("msa: chain %s scanned %s of %d records, the set has %s of %d",
				d.cr.ChainID, sc.name, sc.records, db.Name, len(db.Seqs))
		}
		l := s.lane(db)
		records += len(db.Seqs)
		work += l.instructions()
		dst = append(dst, l)
	}
	if records > 0 {
		work *= uint64(d.cr.Scanned / records)
	}
	if work != d.readerWork {
		return dst[:start], fmt.Errorf("msa: chain %s counts %d reader instructions, the set's databases %d", d.cr.ChainID, d.readerWork, work)
	}
	return dst, nil
}
