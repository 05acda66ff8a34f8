package trace

import (
	"bytes"
	"strings"
	"testing"

	"afsysbench/internal/simgpu"
)

func TestAddAndTotal(t *testing.T) {
	var tl Timeline
	tl.Add("a", 2)
	tl.Add("b", 3)
	if tl.Total() != 5 {
		t.Errorf("total = %v", tl.Total())
	}
	if tl.Spans[1].Start != 2 || tl.Spans[1].End != 5 {
		t.Errorf("span chaining wrong: %+v", tl.Spans[1])
	}
	if err := tl.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEmptyTimeline(t *testing.T) {
	var tl Timeline
	if tl.Total() != 0 {
		t.Error("empty total != 0")
	}
	var buf bytes.Buffer
	if err := tl.Render(&buf, 40); err == nil {
		t.Error("rendering empty timeline should error")
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	tl := Timeline{Spans: []Span{{Name: "a", Start: 0, End: 5}, {Name: "b", Start: 3, End: 6}}}
	if err := tl.Validate(); err == nil {
		t.Error("overlap accepted")
	}
	tl = Timeline{Spans: []Span{{Name: "a", Start: 2, End: 1}}}
	if err := tl.Validate(); err == nil {
		t.Error("negative span accepted")
	}
}

func TestFromInference(t *testing.T) {
	pb := simgpu.PhaseBreakdown{
		InitSeconds:     10,
		CompileSeconds:  20,
		ComputeSeconds:  30,
		FinalizeSeconds: 5,
	}
	tl := FromInference("2PV7 on Server", pb)
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	if tl.Total() != 65 {
		t.Errorf("total = %v", tl.Total())
	}
	if len(tl.Spans) != 4 {
		t.Errorf("spans = %d", len(tl.Spans))
	}
	if tl.Spans[0].Name != "gpu init" || tl.Spans[2].Name != "gpu compute" {
		t.Errorf("span names wrong: %+v", tl.Spans)
	}
}

func TestFromInferenceWarmStart(t *testing.T) {
	pb := simgpu.PhaseBreakdown{ComputeSeconds: 30, FinalizeSeconds: 5}
	tl := FromInference("warm", pb)
	if len(tl.Spans) != 2 {
		t.Errorf("warm-start timeline has %d spans, want 2", len(tl.Spans))
	}
}

func TestFromInferenceSpill(t *testing.T) {
	pb := simgpu.PhaseBreakdown{ComputeSeconds: 30, FinalizeSeconds: 5, Spilled: true}
	tl := FromInference("spill", pb)
	found := false
	for _, s := range tl.Spans {
		if strings.Contains(s.Name, "unified mem") {
			found = true
		}
	}
	if !found {
		t.Error("spill not annotated")
	}
}

func TestRenderProportions(t *testing.T) {
	tl := Timeline{Title: "x"}
	tl.Add("short", 1)
	tl.Add("long", 9)
	var buf bytes.Buffer
	if err := tl.Render(&buf, 50); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "x (total 10.0s)") {
		t.Errorf("header wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	shortBar := strings.Count(lines[1], "█")
	longBar := strings.Count(lines[2], "█")
	if longBar <= shortBar*4 {
		t.Errorf("bar proportions wrong: short=%d long=%d", shortBar, longBar)
	}
	if !strings.Contains(lines[1], "10.0%") || !strings.Contains(lines[2], "90.0%") {
		t.Errorf("percentages wrong:\n%s", out)
	}
}

func TestFromLayers(t *testing.T) {
	layers := []simgpu.LayerTime{
		{Module: "Pairformer", Layer: "triangle attention", Seconds: 2},
		{Module: "Diffusion", Layer: "global attention", Seconds: 13},
	}
	tl := FromLayers("layers", layers)
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	if tl.Total() != 15 {
		t.Errorf("total = %v", tl.Total())
	}
	if tl.Spans[1].Name != "Diffusion: global attention" {
		t.Errorf("span name %q", tl.Spans[1].Name)
	}
}
