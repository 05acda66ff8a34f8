package hmmer

import (
	"sync"

	"afsysbench/internal/seq"
)

// scanWorkspace owns every piece of reusable scratch the per-record scan
// cascade needs: the two banded-Viterbi DP rows, the Forward rows, the
// traceback planes, the seed-vote map and candidate-diagonal slice, the
// hit-dedup set, the long-target window header, and the record buffer's
// staging and recycled-record bytes. One workspace serves
// one scan at a time; scanDB takes one from a sync.Pool per pass (so each
// msa worker shard reuses the buffers of earlier shards instead of
// reallocating them per database record), and every buffer grows
// monotonically to the largest record seen.
type scanWorkspace struct {
	rowA, rowB dpRows    // banded Viterbi row pair
	fwdA, fwdB []float64 // Forward row pair
	tbSc       []float32 // traceback score planes (M/I/D), flattened L×w
	tbPtr      []byte    // traceback pointer planes (M/I/D), flattened L×w
	votes      map[int]int
	diags      []int
	seen       map[string]bool
	window     seq.Sequence // reusable long-target window header
	staging    []byte       // Buffer.staging between scans
	record     []byte       // Buffer.out (the recycled record) between scans
}

var scanWSPool = sync.Pool{New: func() any {
	return &scanWorkspace{
		votes: make(map[int]int),
		seen:  make(map[string]bool),
	}
}}

func takeScanWorkspace() *scanWorkspace { return scanWSPool.Get().(*scanWorkspace) }

func releaseScanWorkspace(ws *scanWorkspace) { scanWSPool.Put(ws) }

// tracebackBufs returns the flattened traceback planes sized for n cells
// each (three score planes, three pointer planes, sharing one allocation
// apiece). The traceback kernel overwrites every cell it later reads, so no
// clearing happens here.
func (ws *scanWorkspace) tracebackBufs(n int) (sc []float32, ptr []byte) {
	if cap(ws.tbSc) < 3*n {
		ws.tbSc = make([]float32, 3*n)
	}
	if cap(ws.tbPtr) < 3*n {
		ws.tbPtr = make([]byte, 3*n)
	}
	return ws.tbSc[:3*n], ws.tbPtr[:3*n]
}

// bandRows returns the two DP row sets sized for band width w.
func (ws *scanWorkspace) bandRows(w int) (prev, cur *dpRows) {
	ws.rowA.ensure(w)
	ws.rowB.ensure(w)
	return &ws.rowA, &ws.rowB
}

// forwardRows returns the two Forward rows for band width w, zeroed. Each
// is w+1 long: the kernel reads slot b+1 of the previous row, and the pad
// slot, which nothing writes, lets it do so without a test at the band edge.
func (ws *scanWorkspace) forwardRows(w int) (prev, cur []float64) {
	if cap(ws.fwdA) < w+1 {
		ws.fwdA = make([]float64, w+1)
		ws.fwdB = make([]float64, w+1)
	}
	prev, cur = ws.fwdA[:w+1], ws.fwdB[:w+1]
	clear(prev)
	clear(cur)
	return prev, cur
}

// seedScratch returns the cleared vote map and the empty candidate slice.
func (ws *scanWorkspace) seedScratch() (map[int]int, []int) {
	clear(ws.votes)
	return ws.votes, ws.diags[:0]
}

// dedupSeen returns the cleared per-scan hit-dedup set.
func (ws *scanWorkspace) dedupSeen() map[string]bool {
	clear(ws.seen)
	return ws.seen
}
