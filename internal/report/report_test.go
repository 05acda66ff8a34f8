package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	err := Table(&buf, []string{"name", "value"}, [][]string{
		{"alpha", "1"},
		{"b", "22222"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name ") {
		t.Errorf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Error("separator missing")
	}
	// Columns align: "value" column starts at the same offset everywhere.
	off := strings.Index(lines[0], "value")
	if strings.Index(lines[2], "1") != off {
		t.Errorf("column misaligned:\n%s", buf.String())
	}
}

func TestTableRaggedRows(t *testing.T) {
	var buf bytes.Buffer
	if err := Table(&buf, []string{"a", "b"}, [][]string{{"only"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "only") {
		t.Error("short row dropped")
	}
}

func TestStackedBars(t *testing.T) {
	var buf bytes.Buffer
	bars := []Bar{
		{Label: "srv", Segments: []Segment{{"msa", 75}, {"inf", 25}}},
		{Label: "dsk", Segments: []Segment{{"msa", 40}, {"inf", 10}}},
	}
	if err := StackedBars(&buf, "title", bars, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "legend:") {
		t.Errorf("missing title/legend:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "=") {
		t.Error("segments not drawn with distinct glyphs")
	}
	// The 100-unit bar must be longer than the 50-unit bar.
	lines := strings.Split(out, "\n")
	srvHashes := strings.Count(lines[1], "#") + strings.Count(lines[1], "=")
	dskHashes := strings.Count(lines[2], "#") + strings.Count(lines[2], "=")
	if srvHashes <= dskHashes {
		t.Errorf("bar lengths not proportional: %d vs %d", srvHashes, dskHashes)
	}
}

func TestStackedBarsEmptyAndZero(t *testing.T) {
	var buf bytes.Buffer
	if err := StackedBars(&buf, "t", []Bar{{Label: "z", Segments: []Segment{{"a", 0}}}}, 10); err != nil {
		t.Fatal(err)
	}
}

func TestLineChart(t *testing.T) {
	var buf bytes.Buffer
	series := []Series{
		{Name: "a", Points: []Point{{1, 10}, {2, 5}}},
		{Name: "b", Points: []Point{{1, 8}, {2, 4}}},
	}
	if err := LineChart(&buf, "chart", "threads", series); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"chart", "threads", "a", "b", "10", "5"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLineChartErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := LineChart(&buf, "x", "t", nil); err == nil {
		t.Error("empty series accepted")
	}
	bad := []Series{
		{Name: "a", Points: []Point{{1, 1}, {2, 2}}},
		{Name: "b", Points: []Point{{1, 1}}},
	}
	if err := LineChart(&buf, "x", "t", bad); err == nil {
		t.Error("mismatched series lengths accepted")
	}
}

func TestPieSharesSum(t *testing.T) {
	var buf bytes.Buffer
	if err := Pie(&buf, "pie", []Segment{{"x", 3}, {"y", 1}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "75.0%") || !strings.Contains(out, "25.0%") {
		t.Errorf("shares wrong:\n%s", out)
	}
}

func TestWriteCSVQuoting(t *testing.T) {
	var buf bytes.Buffer
	rows := []struct{ A, B string }{{`has,comma`, `has"quote`}}
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if want := "A,B\n\"has,comma\",\"has\"\"quote\"\n"; buf.String() != want {
		t.Errorf("quoting wrong: %q, want %q", buf.String(), want)
	}
}

// TestGanttLaysSegmentsEndToEnd: each segment's bar starts where the
// previous one ends, and the header carries the chained total.
func TestGanttLaysSegmentsEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	if err := Gantt(&buf, "x", []Segment{{"a", 2}, {"b", 3}}, 50); err != nil {
		t.Fatal(err)
	}
	want := "x (total 5.0s)\n" +
		"a |" + strings.Repeat("█", 20) + strings.Repeat(" ", 30) + "|     2.0s (40.0%)\n" +
		"b |" + strings.Repeat(" ", 20) + strings.Repeat("█", 30) + "|     3.0s (60.0%)\n"
	if buf.String() != want {
		t.Errorf("gantt =\n%s\nwant\n%s", buf.String(), want)
	}
}

func TestGanttEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Gantt(&buf, "x", nil, 40); err == nil {
		t.Error("rendering an empty gantt chart should error")
	}
}

func TestGanttProportions(t *testing.T) {
	var buf bytes.Buffer
	if err := Gantt(&buf, "x", []Segment{{"short", 1}, {"long", 9}}, 50); err != nil {
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

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		5:    "5.0s",
		90:   "1.5m",
		7200: "2.0h",
	}
	for in, want := range cases {
		if got := formatSeconds(in); got != want {
			t.Errorf("formatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatters(t *testing.T) {
	if F2(1.234) != "1.23" || F1(1.26) != "1.3" || F0(2.7) != "3" || Pct(12.34) != "12.3%" {
		t.Error("formatters wrong")
	}
	if trimFloat(2.50) != "2.5" || trimFloat(3.00) != "3" {
		t.Error("trimFloat wrong")
	}
}

func TestRenderPlatformsAndSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderPlatforms(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Server", "Desktop", "H100", "RTX 4080"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("platform table missing %q", want)
		}
	}
	buf.Reset()
	if err := RenderSamples(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2PV7", "7RCE", "1YY9", "promo", "6QNR", "1395"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("sample table missing %q", want)
		}
	}
}
