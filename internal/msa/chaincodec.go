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
//	funcs    count; the events' function names, strictly ascending
//	events   count; per event, in record order, the index of its function
//	         in funcs, Instructions, Bytes, WorkingSet, Pattern, Branches,
//	         BranchMissRate, PageTouches, Allocated, Pruned
//	scans    count; per database of one round, in scan order, its records
//	records  count (= Scanned, a whole number of rounds); per record its
//	         event count, at least 1, the counts adding up to the events
//	streamed count; per database its name, strictly ascending, then bytes
//	serial   SerialInstructions
//
// Unsigned counters are uvarints and signed integers zig-zag varints, both
// in their shortest form; a string or a residue list is a uvarint length
// and the bytes; a float64 (and the float32 alignment score) is its IEEE
// bits, little-endian. A hit's TargetID is not stored: cascade, the only
// producer of hits, sets it to Target.ID, and the decoder does the same.
// Since names are sorted and varints minimal, equal deltas encode to equal
// bytes, and a payload that decodes re-encodes to itself. Nothing in it
// depends on the thread count the chain was searched at.
const (
	chainMagic   = "AFCD"
	chainVersion = 2
)

// Lower bounds on an element's encoded size. The decoder checks a count
// against the bytes left, divided by its element's minimum, before it
// allocates anything for it, so a payload cannot make it allocate more
// than a small multiple of the payload's own length.
const (
	minHitBytes   = 4 + 4*8 + 1 // ID, type, residues, diagonal; four scores; flag
	minPairBytes  = 3
	minEventBytes = 9 + 8 // nine uvarints, BranchMissRate
	minDBBytes    = 2
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

	b := make([]byte, 0, cc.size/3)
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

	names := funcNames(d.events)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = appendString(b, name)
	}
	b = binary.AppendUvarint(b, uint64(d.starts[len(d.starts)-1]))
	k := 0 // the previous event's function: a run of one symbol skips the search
	for _, run := range d.events {
		for i := range run {
			ev := &run[i]
			if names[k] != ev.Func {
				k = slices.Index(names, ev.Func)
			}
			b = binary.AppendUvarint(b, uint64(k))
			b = binary.AppendUvarint(b, ev.Instructions)
			b = binary.AppendUvarint(b, ev.Bytes)
			b = binary.AppendUvarint(b, ev.WorkingSet)
			b = binary.AppendUvarint(b, uint64(ev.Pattern))
			b = binary.AppendUvarint(b, ev.Branches)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ev.BranchMissRate))
			b = binary.AppendUvarint(b, ev.PageTouches)
			b = binary.AppendUvarint(b, ev.Allocated)
			b = binary.AppendUvarint(b, ev.Pruned)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(d.dbRecs)))
	for _, n := range d.dbRecs {
		b = binary.AppendUvarint(b, uint64(n))
	}
	b = binary.AppendUvarint(b, uint64(len(d.starts)-1))
	for r := 1; r < len(d.starts); r++ {
		b = binary.AppendUvarint(b, uint64(d.starts[r]-d.starts[r-1]))
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

// funcNames returns the distinct function names of the stream's events,
// sorted: the payload's function table.
func funcNames(events [][]metering.Event) []string {
	names := make([]string, 0, 16) // a stream cycles through a handful of symbols
	for _, run := range events {
		for i := range run {
			f := run[i].Func
			if !slices.Contains(names, f) {
				names = append(names, f)
			}
		}
	}
	slices.Sort(names)
	return names
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
// parsed as untrusted input: a truncated field, a count the bytes left
// cannot hold, an out-of-range function index or access pattern, a
// non-minimal varint, unsorted or unused names, record counts that do not
// index the events or the rounds, and trailing bytes are all errors —
// never a panic, and never a delta the merge path could trip on.
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

	names := make([]string, r.count(1))
	for i := range names {
		names[i] = r.str()
		if i > 0 && names[i] <= names[i-1] {
			r.fail("function names not strictly ascending")
		}
	}
	used := make([]bool, len(names))
	var events []metering.Event
	if n := r.count(minEventBytes); n > 0 {
		events = make([]metering.Event, n)
		for i := range events {
			r.event(&events[i], names, used)
		}
		d.events = [][]metering.Event{events}
	}
	if slices.Contains(used, false) {
		r.fail("function name no event uses")
	}
	d.dbRecs, d.starts = r.records(cr.Scanned, len(events))

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

// records reads the scan sequence and the per-record event counts, which
// must index a stream of n events: the chain's scanned records are a whole
// number of rounds of the sequence, each has one count, and every count is
// at least 1 (the record's copy_to_iter), the counts adding up to n.
func (r *chainReader) records(scanned, n int) (dbRecs []int, starts []int32) {
	round := uint64(0)
	if k := r.count(1); k > 0 {
		dbRecs = make([]int, k)
		for i := range dbRecs {
			v := r.uvarint()
			if v > math.MaxInt32 {
				r.fail("database record count out of range")
				v = 0
			}
			dbRecs[i] = int(v)
			round += v
		}
	}
	if scanned < 0 || (round == 0) != (scanned == 0) || round != 0 && uint64(scanned)%round != 0 {
		r.fail("records scanned is not a whole number of rounds")
	}
	k := r.count(1)
	if k != scanned {
		r.fail("record counts do not match the records scanned")
		k = 0
	}
	starts = make([]int32, k+1)
	at := 0
	for i := 0; i < k; i++ {
		c := r.uvarint()
		if c == 0 || c > uint64(n-at) {
			r.fail("record event counts do not index the events")
			break
		}
		starts[i] = int32(at)
		at += int(c)
	}
	starts[k] = int32(at)
	if at != n {
		r.fail("record event counts do not add up to the events")
	}
	return dbRecs, starts
}

func (r *chainReader) event(ev *metering.Event, names []string, used []bool) {
	k := r.uvarint()
	if k >= uint64(len(names)) {
		r.fail("function index out of range")
		return
	}
	used[k] = true
	ev.Func = names[k]
	ev.Instructions = r.uvarint()
	ev.Bytes = r.uvarint()
	ev.WorkingSet = r.uvarint()
	if p := r.uvarint(); p <= uint64(metering.Random) {
		ev.Pattern = metering.Pattern(p)
	} else {
		r.fail("access pattern out of range")
	}
	ev.Branches = r.uvarint()
	ev.BranchMissRate = r.f64()
	ev.PageTouches = r.uvarint()
	ev.Allocated = r.uvarint()
	ev.Pruned = r.uvarint()
}
