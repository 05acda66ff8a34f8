package msa

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"afsysbench/internal/hmmer"
	"afsysbench/internal/metering"
	"afsysbench/internal/seq"
)

// The chain codec is the persistent tier's payload for one chain delta. A
// chain crosses the disk boundary whole and must come back bit for bit, so
// every value is stored exactly and every payload has one reading:
//
//	magic    "AFCD", then a version byte
//	row      ChainID; Type, Hits, Candidates, Scanned; CellsDP, CellsPruned; Rows, HitResidues
//	hits     count; per hit: target ID, type and residues; Diagonal;
//	         ViterbiScore, ForwardScore, Bits, EValue; an alignment flag
//	         0|1, then Score and per pair Op, Col, Pos
//	scans    count; per database of one round, in scan order, its name and
//	         records (Scanned is a whole number of rounds)
//	reader   the reader lane's instructions over the scans
//	events   the number of events the scans recorded
//	funcs    count; per function with events, in ascending metering.Func
//	         order and none of the reader lane's (copy_to_iter, addbuf,
//	         seebuf: their work is the databases', credited from a table
//	         each database builds once): its id; the number of records it
//	         has events in, 1 to
//	         Scanned; unless that is every record, those records' indexes as
//	         gaps (the first index, then each index less the one before, at
//	         least 1); then per such record, in order, its event count (at
//	         least 1, the counts adding up to events) and summed
//	         Instructions, Bytes, Branches and Allocated
//	streamed count; per database its name, strictly ascending, then bytes
//	serial   SerialInstructions
//
// Unsigned counters are uvarints and signed integers zig-zag varints, both
// in their shortest form; a string or a residue list is a uvarint length
// and the bytes; a float64 (and the float32 alignment score) is its IEEE
// bits, little-endian. A hit's TargetID is not stored: cascade, the only
// producer of hits, sets it to Target.ID, and the decoder does the same.
// Since names and ids are sorted and varints minimal, equal deltas encode
// to equal bytes, and a payload that decodes re-encodes to itself. Nothing
// in it depends on the thread count the chain was searched at. A function
// id is its metering.Func value, so any change to that table is a change of
// format: bump chainVersion and the serving layer's codec id with it.
// Version 4 dropped the reader lane's functions and named the scans.
const (
	chainMagic   = "AFCD"
	chainVersion = 4
)

// Lower bounds on an element's encoded size. The decoder checks a count
// against the bytes left, divided by its element's minimum, before it
// allocates anything for it, so a payload cannot make it allocate more
// than a small multiple of the payload's own length.
const (
	minHitBytes    = 4 + 4*8 + 1 // ID, type, residues, diagonal; four scores; flag
	minPairBytes   = 3
	minRecordBytes = 5     // a record's count and four sums
	minFuncBytes   = 2 + 5 // id, record count, one record
	minDBBytes     = 2
)

// Encode serializes the snapshot for the persistent tier. A hit without a
// target, or whose TargetID is not its target's ID, is refused: the format
// cannot express it.
func (cc *CachedChain) Encode() ([]byte, error) {
	d := cc.d
	for i := range d.hits {
		if h := &d.hits[i]; h.Target == nil {
			return nil, fmt.Errorf("msa: encode cached chain: hit %d has no target", i)
		} else if h.TargetID != h.Target.ID {
			return nil, fmt.Errorf("msa: encode cached chain: hit %d names %q but holds %q", i, h.TargetID, h.Target.ID)
		}
	}

	b := make([]byte, 0, encodedBound(d))
	b = append(b, chainMagic...)
	b = append(b, chainVersion)
	cr := &d.cr
	b = appendString(b, cr.ChainID)
	b = appendInts(b, int(cr.Type), cr.Hits, cr.Candidates, cr.Scanned)
	b = binary.AppendUvarint(b, cr.CellsDP)
	b = binary.AppendUvarint(b, cr.CellsPruned)
	b = appendInts(b, cr.Rows, cr.HitResidues)

	b = binary.AppendUvarint(b, uint64(len(d.hits)))
	for i := range d.hits {
		h := &d.hits[i]
		b = appendString(b, h.Target.ID)
		b = binary.AppendVarint(b, int64(h.Target.Type))
		b = binary.AppendUvarint(b, uint64(len(h.Target.Residues)))
		b = append(b, h.Target.Residues...)
		b = binary.AppendVarint(b, int64(h.Diagonal))
		for _, f := range [...]float64{h.ViterbiScore, h.ForwardScore, h.Bits, h.EValue} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		if h.Alignment == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(h.Alignment.Score))
		b = binary.AppendUvarint(b, uint64(len(h.Alignment.Pairs)))
		for _, p := range h.Alignment.Pairs {
			b = append(b, byte(p.Op))
			b = appendInts(b, p.Col, p.Pos)
		}
	}

	b = binary.AppendUvarint(b, uint64(len(d.dbRecs)))
	for _, sc := range d.dbRecs {
		b = appendString(b, sc.name)
		b = binary.AppendUvarint(b, uint64(sc.records))
	}
	b = binary.AppendUvarint(b, d.readerWork)
	var events uint64
	for k := range d.sums {
		events += d.sums[k].total().Events
	}
	b = binary.AppendUvarint(b, events)
	b = binary.AppendUvarint(b, uint64(len(d.sums)))
	for k := range d.sums {
		s := &d.sums[k]
		b = binary.AppendUvarint(b, uint64(s.f))
		b = binary.AppendUvarint(b, uint64(len(s.cum)-1))
		prev := int32(0)
		for _, r := range s.recs {
			b = binary.AppendUvarint(b, uint64(r-prev))
			prev = r
		}
		for j := 1; j < len(s.cum); j++ {
			t := s.cum[j].Sub(s.cum[j-1])
			for _, v := range [...]uint64{t.Events, t.Instructions, t.Bytes, t.Branches, t.Allocated} {
				b = binary.AppendUvarint(b, v)
			}
		}
	}

	dbs := make([]string, 0, len(d.streamed))
	for name := range d.streamed {
		dbs = append(dbs, name)
	}
	slices.Sort(dbs)
	b = binary.AppendUvarint(b, uint64(len(dbs)))
	for _, name := range dbs {
		b = appendString(b, name)
		b = binary.AppendVarint(b, d.streamed[name])
	}
	return binary.AppendUvarint(b, d.serial), nil
}

// encodedBound is a little over the payload's length, counted from the
// chain's own parts at each field's usual width — a hit's fixed fields ≈ 44
// bytes, a record's sums ≈ 18, an alignment pair ≈ 5 — so Encode
// allocates its buffer once. (On the suite's chains it is 1.02–1.17× the
// payload.)
func encodedBound(d *chainDelta) int {
	n := 64 + len(d.cr.ChainID)
	for i := range d.hits {
		h := &d.hits[i]
		n += 44
		if h.Target != nil {
			n += len(h.Target.ID) + len(h.Target.Residues)
		}
		if h.Alignment != nil {
			n += 8 + 5*len(h.Alignment.Pairs)
		}
	}
	for _, sc := range d.dbRecs {
		n += 4 + len(sc.name)
	}
	for k := range d.sums {
		n += 4 + 2*len(d.sums[k].recs) + 18*(len(d.sums[k].cum)-1)
	}
	for name := range d.streamed {
		n += 12 + len(name)
	}
	return n
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// DecodeCachedChain reverses Encode. The payload comes off a disk, so it is
// parsed as untrusted input: another version, a truncated field, a count
// the bytes left cannot hold, an out-of-range, unsorted or reader-lane
// function id, a non-minimal
// varint, record indexes that do not increase or lie past the records
// scanned, per-record event counts that are zero or do not add up to the
// events, a scan sequence the records are not whole rounds of, unsorted
// names and trailing bytes are all errors — never a panic, and never a
// delta the merge path could trip on.
func DecodeCachedChain(b []byte) (*CachedChain, error) {
	if len(b) <= len(chainMagic) || string(b[:len(chainMagic)]) != chainMagic {
		return nil, fmt.Errorf("msa: decode cached chain: not a chain payload")
	}
	if v := b[len(chainMagic)]; v != chainVersion {
		return nil, fmt.Errorf("msa: decode cached chain: version %d", v)
	}
	r := chainReader{b: b[len(chainMagic)+1:]}
	d := &chainDelta{}
	cr := &d.cr
	cr.ChainID = r.str()
	cr.Type = seq.MoleculeType(r.sint())
	cr.Hits, cr.Candidates, cr.Scanned = r.sint(), r.sint(), r.sint()
	cr.CellsDP, cr.CellsPruned = r.uvarint(), r.uvarint()
	cr.Rows, cr.HitResidues = r.sint(), r.sint()

	if n := r.count(minHitBytes); n > 0 {
		d.hits = make([]hmmer.Hit, n)
		targets := make([]seq.Sequence, n)
		for i := range d.hits {
			r.hit(&d.hits[i], &targets[i])
		}
	}

	d.dbRecs = r.scans(cr.Scanned)
	d.readerWork = r.uvarint()
	d.sums = r.sums(cr.Scanned)

	n := r.count(minDBBytes)
	d.streamed = make(map[string]int64, n)
	prev := ""
	for i := 0; i < n; i++ {
		name := r.str()
		if i > 0 && name <= prev {
			r.fail("database names not strictly ascending")
		}
		d.streamed[name] = r.varint()
		prev = name
	}
	d.serial = r.uvarint()
	if len(r.b) != 0 {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return nil, r.err
	}
	return newCachedChain(d), nil
}

// chainReader walks a chain payload. The first failure is kept and empties
// the buffer, so every later read returns zero and every later count is
// zero: the decoder runs to its end allocating nothing more for the
// payload, then reports the first error.
type chainReader struct {
	b   []byte
	err error
}

func (r *chainReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("msa: decode cached chain: %s", what)
	}
	r.b = nil
}

func (r *chainReader) uvarint() uint64 {
	if len(r.b) > 0 && r.b[0] < 0x80 {
		v := uint64(r.b[0])
		r.b = r.b[1:]
		return v
	}
	v, n := binary.Uvarint(r.b)
	// A zero last byte is a longer form than the value needs.
	if n <= 0 || r.b[n-1] == 0 {
		r.fail("bad or truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *chainReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *chainReader) sint() int { return int(r.varint()) }

// count reads an element count and checks that the bytes left can hold
// that many elements of at least min bytes each.
func (r *chainReader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail("count exceeds the payload")
		return 0
	}
	return int(n)
}

func (r *chainReader) raw(n int) []byte {
	if len(r.b) < n {
		r.fail("truncated field")
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *chainReader) str() string { return string(r.raw(r.count(1))) }

func (r *chainReader) f64() float64 {
	if v := r.raw(8); v != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(v))
	}
	return 0
}

func (r *chainReader) hit(h *hmmer.Hit, target *seq.Sequence) {
	target.ID = r.str()
	target.Type = seq.MoleculeType(r.sint())
	if res := r.raw(r.count(1)); len(res) > 0 {
		target.Residues = slices.Clone(res)
	}
	h.TargetID, h.Target = target.ID, target
	h.Diagonal = r.sint()
	h.ViterbiScore, h.ForwardScore, h.Bits, h.EValue = r.f64(), r.f64(), r.f64(), r.f64()
	switch flag := r.raw(1); {
	case flag == nil, flag[0] == 0:
		return
	case flag[0] != 1:
		r.fail("bad alignment flag")
		return
	}
	ali := &hmmer.Alignment{}
	if v := r.raw(4); v != nil {
		ali.Score = math.Float32frombits(binary.LittleEndian.Uint32(v))
	}
	if n := r.count(minPairBytes); n > 0 {
		ali.Pairs = make([]hmmer.AlignedPair, n)
		for i := range ali.Pairs {
			p := &ali.Pairs[i]
			if op := r.raw(1); op != nil {
				p.Op = hmmer.OpKind(op[0])
			}
			p.Col, p.Pos = r.sint(), r.sint()
		}
	}
	h.Alignment = ali
}

// scans reads one round's scan sequence, of which the chain's scanned
// records must be a whole number of rounds.
func (r *chainReader) scans(scanned int) []dbRecords {
	var dbRecs []dbRecords
	round := uint64(0)
	if k := r.count(minDBBytes); k > 0 {
		dbRecs = make([]dbRecords, k)
		for i := range dbRecs {
			dbRecs[i].name = r.str()
			v := r.uvarint()
			if v > math.MaxInt32 {
				r.fail("database record count out of range")
				v = 0
			}
			dbRecs[i].records = int(v)
			round += v
		}
	}
	if scanned < 0 || (round == 0) != (scanned == 0) || round != 0 && uint64(scanned)%round != 0 {
		r.fail("records scanned is not a whole number of rounds")
	}
	return dbRecs
}

// sums reads the event total and the per-function sums over records
// 0 .. records−1, rebuilding each function's running totals.
func (r *chainReader) sums(records int) []funcSums {
	events := r.uvarint()
	var sums []funcSums
	if n := r.count(minFuncBytes); n > 0 {
		sums = make([]funcSums, n)
	}
	var counted uint64
	for i := range sums {
		s := &sums[i]
		id := r.uvarint()
		if s.f = metering.Func(id); id >= uint64(metering.NumFuncs) || i > 0 && s.f <= sums[i-1].f {
			r.fail("function id out of range or order")
		} else if slices.Contains(readerFuncs[:], s.f) {
			r.fail("a reader-lane function, whose work is the databases'")
		}
		k := r.count(minRecordBytes)
		if k == 0 || k > records {
			r.fail("a function's record count is not 1 to the records scanned")
		}
		if k < records {
			s.recs = make([]int32, k)
			at := uint64(0)
			for j := range s.recs {
				gap := r.uvarint()
				if at += gap; j > 0 && gap == 0 || gap >= uint64(records) || at >= uint64(records) {
					r.fail("record indexes do not increase within the records scanned")
				}
				s.recs[j] = int32(at)
			}
		}
		s.cum = make([]metering.Tally, k+1)
		for j := 1; j <= k; j++ {
			t := metering.Tally{Events: r.uvarint(), Instructions: r.uvarint(), Bytes: r.uvarint(),
				Branches: r.uvarint(), Allocated: r.uvarint()}
			if t.Events == 0 {
				r.fail("a record with no events")
			}
			counted += t.Events
			s.cum[j] = s.cum[j-1]
			s.cum[j].Add(t)
		}
	}
	if counted != events {
		r.fail("per-record event counts do not add up to the events")
	}
	return sums
}
