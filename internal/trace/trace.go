// Package trace builds Nsight-Systems-style phase timelines for pipeline
// runs: ordered spans with begin/end times, rendered as a text gantt chart.
// It is the suite's stand-in for the paper's nsys profiling of the
// inference phase (Figure 8).
package trace

import (
	"fmt"
	"io"
	"strings"

	"afsysbench/internal/simgpu"
)

// Span is one timeline interval.
type Span struct {
	Name  string
	Start float64 // seconds from timeline origin
	End   float64
}

// Duration returns the span length.
func (s Span) Duration() float64 { return s.End - s.Start }

// Timeline is an ordered list of spans.
type Timeline struct {
	Title string
	Spans []Span
}

// Add appends a span of the given duration after the last span and returns
// its index.
func (t *Timeline) Add(name string, duration float64) int {
	start := 0.0
	if n := len(t.Spans); n > 0 {
		start = t.Spans[n-1].End
	}
	t.Spans = append(t.Spans, Span{Name: name, Start: start, End: start + duration})
	return len(t.Spans) - 1
}

// Total returns the timeline end time.
func (t *Timeline) Total() float64 {
	if len(t.Spans) == 0 {
		return 0
	}
	return t.Spans[len(t.Spans)-1].End
}

// FromInference builds the inference-phase timeline from a phase breakdown.
func FromInference(title string, pb simgpu.PhaseBreakdown) *Timeline {
	tl := &Timeline{Title: title}
	if pb.InitSeconds > 0 {
		tl.Add("gpu init", pb.InitSeconds)
	}
	if pb.CompileSeconds > 0 {
		tl.Add("xla compile", pb.CompileSeconds)
	}
	name := "gpu compute"
	if pb.Spilled {
		name = "gpu compute (unified mem)"
	}
	tl.Add(name, pb.ComputeSeconds)
	tl.Add("finalize", pb.FinalizeSeconds)
	return tl
}

// FromLayers builds a compute-phase timeline from per-layer GPU times,
// ordered as given (the JAX-profiler view behind Figure 9 / Table VI).
func FromLayers(title string, layers []simgpu.LayerTime) *Timeline {
	tl := &Timeline{Title: title}
	for _, l := range layers {
		tl.Add(l.Module+": "+l.Layer, l.Seconds)
	}
	return tl
}

// Render prints the timeline as a text gantt chart of the given width.
func (t *Timeline) Render(w io.Writer, width int) error {
	if width <= 0 {
		width = 60
	}
	total := t.Total()
	if total == 0 {
		return fmt.Errorf("trace: empty timeline")
	}
	if _, err := fmt.Fprintf(w, "%s (total %.1fs)\n", t.Title, total); err != nil {
		return err
	}
	nameW := 0
	for _, s := range t.Spans {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for _, s := range t.Spans {
		startCol := int(s.Start / total * float64(width))
		lenCols := int(s.Duration() / total * float64(width))
		if lenCols < 1 {
			lenCols = 1
		}
		if startCol+lenCols > width {
			lenCols = width - startCol
		}
		bar := strings.Repeat(" ", startCol) + strings.Repeat("█", lenCols)
		if _, err := fmt.Fprintf(w, "%-*s |%-*s| %7.1fs (%4.1f%%)\n",
			nameW, s.Name, width, bar, s.Duration(), 100*s.Duration()/total); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks span ordering invariants (monotone, non-negative).
func (t *Timeline) Validate() error {
	prevEnd := 0.0
	for i, s := range t.Spans {
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Start < prevEnd {
			return fmt.Errorf("trace: span %d (%s) overlaps its predecessor", i, s.Name)
		}
		prevEnd = s.End
	}
	return nil
}
