package hmmer

import (
	"sync"

	"afsysbench/internal/seq"
)

// scanWorkspace owns every piece of reusable scratch the per-record scan
// cascade needs: the banded-Viterbi DP rows (a pair for scoring, one per
// target row for a traceback), the Forward rows, the seed tables, the
// traceback path and the pending tracebacks of a scan's hits, the hit-dedup
// set and the long-target window header. One workspace serves
// one scan at a time; scanDB takes one from the free list per pass (so each
// msa worker shard reuses the buffers of earlier shards instead of
// reallocating them per database record), and every buffer grows
// monotonically to the largest record seen.
type scanWorkspace struct {
	band       []float32      // banded Viterbi rows, [M | I | D] each (band.go)
	fwdA, fwdB []float64      // Forward row pair
	seeds      seedIndex      // k-mer tables and diagonal votes
	pairs      []AlignedPair  // traceback path, end to start
	traces     []pendingTrace // parallel to the scan's Result.Hits
	seen       map[string]bool
	window     seq.Sequence // reusable long-target window header
}

// scanWorkspaces is the free list of idle workspaces, taken and returned
// last in, first out. It holds at most as many workspaces as were ever in
// use at once. Unlike a sync.Pool it is neither emptied by a collection nor
// split per P, so a scan always gets the buffers an earlier scan grew, and
// a scan's allocations do not depend on which P it last ran on.
var scanWorkspaces struct {
	mu   sync.Mutex
	free []*scanWorkspace
}

func takeScanWorkspace() *scanWorkspace {
	scanWorkspaces.mu.Lock()
	defer scanWorkspaces.mu.Unlock()
	n := len(scanWorkspaces.free)
	if n == 0 {
		return &scanWorkspace{seen: make(map[string]bool)}
	}
	ws := scanWorkspaces.free[n-1]
	scanWorkspaces.free = scanWorkspaces.free[:n-1]
	return ws
}

func releaseScanWorkspace(ws *scanWorkspace) {
	scanWorkspaces.mu.Lock()
	scanWorkspaces.free = append(scanWorkspaces.free, ws)
	scanWorkspaces.mu.Unlock()
}

// bandRows returns n DP rows for band width w, uninitialised: the drivers
// write every slot of a row before anything reads it.
func (ws *scanWorkspace) bandRows(n, w int) []float32 {
	size := n * 3 * bandStride(w)
	if cap(ws.band) < size {
		ws.band = make([]float32, size)
	}
	return ws.band[:size]
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

// dedupSeen returns the cleared per-scan hit-dedup set.
func (ws *scanWorkspace) dedupSeen() map[string]bool {
	clear(ws.seen)
	return ws.seen
}
