package hmmer

import (
	"afsysbench/internal/seq"
)

// Long-target windowing, nhmmer style. Nucleotide database records
// (chromosomes, rRNA operons) can be orders of magnitude longer than the
// query; nhmmer scans them in overlapping windows so the DP working set
// stays bounded per window — while the *accumulated* per-window candidate
// state is exactly the memory behavior that blows up on long queries
// (paper Section III-C / Figure 2).

// windowPlan describes how a target of length L is split for a query of
// length qLen: windows of length 3·qLen (minimum minWindow), overlapping by
// qLen so no alignment of query length is ever split.
type windowPlan struct {
	winLen  int
	stride  int
	targets int // number of windows
}

const minWindow = 512

func planWindows(qLen, targetLen int) windowPlan {
	winLen := 3 * qLen
	if winLen < minWindow {
		winLen = minWindow
	}
	if winLen >= targetLen {
		return windowPlan{winLen: targetLen, stride: targetLen, targets: 1}
	}
	stride := winLen - qLen
	n := 1 + (targetLen-winLen+stride-1)/stride
	return windowPlan{winLen: winLen, stride: stride, targets: n}
}

// scanLongTarget runs the windowed nucleotide scan of a single target. Each
// window goes through the usual seed → banded-Viterbi → Forward cascade;
// hit coordinates are mapped back to the whole target. The window header is
// the workspace's reusable Sequence — windows are views into the target's
// residues, so no bytes are copied per window.
func (s *scanState) scanLongTarget(target *seq.Sequence) {
	plan := planWindows(s.query.Len(), target.Len())
	s.res.Windows += plan.targets
	bandBytes := int64(2*BandHalfWidth+1) * 3 * 4 // one band row set
	// peak models the per-target candidate state nhmmer holds: every seeded
	// window keeps its DP band and hit context alive until target
	// postprocessing (the Figure 2 memory driver).
	var peak int64

	window := &s.ws.window
	window.ID = target.ID
	window.Type = target.Type
	for wi := 0; wi < plan.targets; wi++ {
		start := wi * plan.stride
		end := start + plan.winLen
		if end > target.Len() {
			end = target.Len()
		}
		window.Residues = target.Residues[start:end]
		diags := s.ws.seeds.candidates(window, minSeeds(s.query.Type), maxDiagonals, 2*BandHalfWidth, s.m, false)
		if len(diags) == 0 {
			continue
		}
		// Seeded windows retain their DP state and window copy until the
		// target finishes — the superlinear accumulation.
		peak += int64(end-start) + bandBytes*int64(end-start) + int64(len(diags))*64
		s.cascade(window, target, start, diags)
	}
	window.Residues = nil // don't pin the target's bytes in the free list
	if peak > s.res.PeakWindowStateBytes {
		s.res.PeakWindowStateBytes = peak
	}
}

// longTargetThreshold is the length above which nucleotide targets switch
// to windowed scanning.
func longTargetThreshold(qLen int) int {
	t := 4 * qLen
	if t < 2*minWindow {
		t = 2 * minWindow
	}
	return t
}
