package hmmer

import (
	"afsysbench/internal/metering"
	"afsysbench/internal/seq"
)

// RecordSource yields database records in storage order.
type RecordSource interface {
	// Next returns the next record, or ok=false at end of input. A returned
	// record stays valid and unmodified: a scan's hits point at it.
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
// The events model hmmsearch's buffer stack at paper scale, not this
// process: every source hands out records that are already in memory, so
// Next meters a record and passes the source's own pointer on.
type Buffer struct {
	src   RecordSource
	meter metering.Meter
	// dbFootprint is the modeled resident footprint of the database being
	// streamed (paper-scale bytes); it is the working set reported for
	// copy_to_iter.
	dbFootprint uint64
}

// stagingSize is the modeled user-space lookahead buffer size (HMMER's
// default 256 KiB input window): the working set addbuf and seebuf report.
const stagingSize = 256 * 1024

// NewBuffer wraps src. dbFootprint is the modeled byte size of the backing
// database (DB.ModeledBytes()).
func NewBuffer(src RecordSource, dbFootprint uint64, m metering.Meter) *Buffer {
	if m == nil {
		m = metering.Nop{}
	}
	return &Buffer{src: src, meter: m, dbFootprint: dbFootprint}
}

// Next returns the source's next record after metering the three buffering
// steps for it.
//
// Contract: copy_to_iter (metering.RecordStart) is the first event a
// record's scan records, and no other step of a scan records it. A scan's
// meter therefore receives, per record in storage order, one copy_to_iter
// and then everything that record cost until the next one — which is how a
// metering.Accumulator folds a scan as it records: each copy_to_iter
// closes the record before it into one row per function, so msa builds a
// chain's per-record sums without keeping an event, and then credits the
// chain to any thread count.
func (b *Buffer) Next() (*seq.Sequence, bool) {
	rec, ok := b.src.Next()
	if !ok {
		return nil, false
	}
	n := uint64(len(rec.Residues))

	// copy_to_iter: page-cache -> user copy, one pass over the bytes.
	b.meter.Record(metering.Event{
		Func:         metering.CopyToIter,
		Instructions: n / 2, // wide vectorized copy loop
		Bytes:        2 * n, // read + write
		WorkingSet:   b.dbFootprint,
		Branches:     n / 64,
	})

	// addbuf: append into the lookahead window (a second pass). Allocated
	// is HMMER's per-record buffer growth, not this process's Go heap.
	b.meter.Record(metering.Event{
		Func:         metering.AddBuf,
		Instructions: 12 * n, // parsing, validation, digital translation
		Bytes:        2 * n,
		WorkingSet:   stagingSize,
		Branches:     n / 16,
		Allocated:    n,
	})

	// seebuf: lookahead scanning — record sniffing and tokenization, a
	// third pass.
	b.meter.Record(metering.Event{
		Func:         metering.SeeBuf,
		Instructions: 4 * n,
		Bytes:        n,
		WorkingSet:   stagingSize,
		Branches:     n,
	})
	return rec, true
}
