package hmmer

import (
	"afsysbench/internal/metering"
	"afsysbench/internal/seq"
)

// RecordSource yields database records in storage order.
type RecordSource interface {
	// Next returns the next record, or ok=false at end of input.
	Next() (s *seq.Sequence, ok bool)
}

// SliceSource adapts an in-memory record slice to RecordSource.
type SliceSource struct {
	Seqs []*seq.Sequence
	pos  int
}

// Next implements RecordSource.
func (s *SliceSource) Next() (*seq.Sequence, bool) {
	if s.pos >= len(s.Seqs) {
		return nil, false
	}
	out := s.Seqs[s.pos]
	s.pos++
	return out, true
}

// Buffer is the input-buffering layer between database storage and the
// search kernels, mirroring HMMER's esl_buffer stack. Each record passes
// through three instrumented steps that appear in the paper's profiles:
//
//	copy_to_iter — the kernel-side copy from page cache into user space
//	               (its working set is the whole modeled database, which is
//	               why it dominates LLC misses at low thread counts);
//	addbuf       — appending the record into the user-space lookahead
//	               buffer;
//	seebuf       — lookahead scanning/classification of buffered input.
//
// The copies are performed for real so wall-time benchmarks exercise the
// same byte traffic the models account for.
type Buffer struct {
	src   RecordSource
	meter metering.Meter
	// dbFootprint is the modeled resident footprint of the database being
	// streamed (paper-scale bytes); it is the working set reported for
	// copy_to_iter.
	dbFootprint uint64
	// staging starts empty and grows to the largest record; scanDB lends
	// it, and out, the pooled workspace's bytes for the length of a scan.
	staging []byte
	// recycle hands out the same Sequence header and byte buffer on every
	// Next call instead of fresh allocations. Callers that keep a record
	// beyond the following Next (e.g. inside a Hit) must clone it first;
	// scanDB does this lazily per reported record. The addbuf event still
	// reports Allocated: n either way — it models HMMER's per-record buffer
	// growth at paper scale, not this process's Go heap.
	recycle bool
	out     []byte
	rec     seq.Sequence
}

// stagingSize is the modeled user-space lookahead buffer size (HMMER's
// default 256 KiB input window): the working set addbuf and seebuf report,
// whatever this process's staging slice has grown to.
const stagingSize = 256 * 1024

// NewBuffer wraps src. dbFootprint is the modeled byte size of the backing
// database (DB.ModeledBytes()).
func NewBuffer(src RecordSource, dbFootprint uint64, m metering.Meter) *Buffer {
	if m == nil {
		m = metering.Nop{}
	}
	return &Buffer{src: src, meter: m, dbFootprint: dbFootprint}
}

// NewRecyclingBuffer is NewBuffer with record recycling: the returned record
// (header and residue bytes) is only valid until the next Next call. This is
// the steady-state scan configuration — a database pass touches millions of
// records and the per-record copies are pure garbage once scanned.
func NewRecyclingBuffer(src RecordSource, dbFootprint uint64, m metering.Meter) *Buffer {
	b := NewBuffer(src, dbFootprint, m)
	b.recycle = true
	return b
}

// Next returns the next record after pushing it through the instrumented
// buffering path.
func (b *Buffer) Next() (*seq.Sequence, bool) {
	rec, ok := b.src.Next()
	if !ok {
		return nil, false
	}
	n := uint64(len(rec.Residues))

	// copy_to_iter: page-cache -> user copy. One real pass over the bytes.
	b.staging = append(b.staging[:0], rec.Residues...)
	b.meter.Record(metering.Event{
		Func:         "copy_to_iter",
		Instructions: n / 2, // wide vectorized copy loop
		Bytes:        2 * n, // read + write
		WorkingSet:   b.dbFootprint,
		Pattern:      metering.Sequential,
		Branches:     n / 64,
		// Copy loops are essentially branch-perfect.
		BranchMissRate: 0.001,
	})

	// addbuf: append into the lookahead window (second real pass).
	var out []byte // a fresh copy per record unless recycling
	if b.recycle {
		out = b.out[:0]
	}
	out = append(out, b.staging...)
	b.meter.Record(metering.Event{
		Func:           "addbuf",
		Instructions:   12 * n, // parsing, validation, digital translation
		Bytes:          2 * n,
		WorkingSet:     stagingSize,
		Pattern:        metering.Sequential,
		Branches:       n / 16,
		BranchMissRate: 0.002,
		Allocated:      n,
	})

	// seebuf: lookahead scanning — a real pass over the record computing a
	// composition checksum (standing in for record sniffing and lookahead
	// tokenization).
	var sum uint32
	for _, c := range out {
		sum = sum*31 + uint32(c)
	}
	_ = sum
	b.meter.Record(metering.Event{
		Func:           "seebuf",
		Instructions:   4 * n,
		Bytes:          n,
		WorkingSet:     stagingSize,
		Pattern:        metering.Sequential,
		Branches:       n,
		BranchMissRate: 0.002,
	})

	if b.recycle {
		b.out = out
		b.rec = seq.Sequence{ID: rec.ID, Type: rec.Type, Residues: out}
		return &b.rec, true
	}
	return &seq.Sequence{ID: rec.ID, Type: rec.Type, Residues: out}, true
}
