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

// ReaderEvents is the work HMMER's input-buffering layer — its esl_buffer
// stack, which the serialized reader thread runs — spends on one record of
// n residues, as the three steps that appear in the paper's profiles:
//
//	copy_to_iter — the kernel-side copy from page cache into user space
//	               (its working set is the whole modeled database of
//	               dbFootprint bytes, which is why it dominates LLC misses
//	               at low thread counts);
//	addbuf       — appending the record into the user-space lookahead
//	               buffer;
//	seebuf       — lookahead scanning/classification of buffered input.
//
// The events model hmmsearch's buffer stack at paper scale, not this
// process: every source hands out records that are already in memory.
//
// Contract: this work is a function of the record and its database alone,
// never of the query, so a scan does not record it. The scan's record
// loop marks each record's start (metering.RecordStart) and records only
// what the query decides; msa builds each database's reader lane once,
// per record, from these events (scaled as a scan's events are) and
// credits it beside a chain's own work.
func ReaderEvents(n, dbFootprint uint64) [3]metering.Event {
	return [3]metering.Event{
		// copy_to_iter: page-cache -> user copy, one pass over the bytes.
		{
			Func:         metering.CopyToIter,
			Instructions: n / 2, // wide vectorized copy loop
			Bytes:        2 * n, // read + write
			WorkingSet:   dbFootprint,
			Branches:     n / 64,
		},
		// addbuf: append into the lookahead window (a second pass).
		// Allocated is HMMER's per-record buffer growth, not this
		// process's Go heap.
		{
			Func:         metering.AddBuf,
			Instructions: 12 * n, // parsing, validation, digital translation
			Bytes:        2 * n,
			WorkingSet:   stagingSize,
			Branches:     n / 16,
			Allocated:    n,
		},
		// seebuf: lookahead scanning — record sniffing and tokenization, a
		// third pass.
		{
			Func:         metering.SeeBuf,
			Instructions: 4 * n,
			Bytes:        n,
			WorkingSet:   stagingSize,
			Branches:     n,
		},
	}
}

// stagingSize is the modeled user-space lookahead buffer size (HMMER's
// default 256 KiB input window): the working set addbuf and seebuf report.
const stagingSize = 256 * 1024
