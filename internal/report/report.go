// Package report is the suite's one rendering package: the paper's tables
// and figures as terminal tables and ASCII charts, printable from any
// shell; perf-style function profiles and Nsight-style gantt timelines of
// a run (the paper's perf/uProf/nsys workflow); and the typed rows behind
// any of them as CSV for external plotting.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table renders rows under headers with column alignment.
func Table(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) {
				if n := utf8.RuneCountInString(cell); n > widths[i] {
					widths[i] = n
				}
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(headers))
		for i := range headers {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			parts[i] = pad(cell, widths[i])
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(headers)); err != nil {
		return err
	}
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Segment is one stacked portion of a bar.
type Segment struct {
	Name  string
	Value float64
}

// Bar is one labeled stacked bar.
type Bar struct {
	Label    string
	Segments []Segment
}

// segmentGlyphs fills stacked bars; the legend maps glyphs to names.
var segmentGlyphs = []byte{'#', '=', '+', '.', '~', '%'}

// StackedBars renders horizontal stacked bars scaled to width characters,
// with a legend and per-bar totals.
func StackedBars(w io.Writer, title string, bars []Bar, width int) error {
	if width <= 0 {
		width = 60
	}
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	var max float64
	labelW := 0
	for _, b := range bars {
		var total float64
		for _, s := range b.Segments {
			total += s.Value
		}
		if total > max {
			max = total
		}
		if n := utf8.RuneCountInString(b.Label); n > labelW {
			labelW = n
		}
	}
	if max == 0 {
		max = 1
	}
	legend := map[string]byte{}
	var legendOrder []string
	glyphFor := func(name string) byte {
		if g, ok := legend[name]; ok {
			return g
		}
		g := segmentGlyphs[len(legend)%len(segmentGlyphs)]
		legend[name] = g
		legendOrder = append(legendOrder, name)
		return g
	}
	for _, b := range bars {
		var sb strings.Builder
		var total float64
		for _, s := range b.Segments {
			total += s.Value
		}
		for _, s := range b.Segments {
			n := int(s.Value / max * float64(width))
			sb.WriteString(strings.Repeat(string(glyphFor(s.Name)), n))
		}
		if _, err := fmt.Fprintf(w, "%s |%s %s\n", pad(b.Label, labelW), pad(sb.String(), width), formatSeconds(total)); err != nil {
			return err
		}
	}
	var parts []string
	for _, name := range legendOrder {
		parts = append(parts, fmt.Sprintf("%c=%s", legend[name], name))
	}
	_, err := fmt.Fprintf(w, "legend: %s\n", strings.Join(parts, " "))
	return err
}

// Series is one line of a line chart.
type Series struct {
	Name   string
	Points []Point
}

// Point is an (x, y) pair.
type Point struct {
	X float64
	Y float64
}

// LineChart renders series as aligned columns (x, then one column per
// series) — the terminal-friendly form of the paper's line figures.
func LineChart(w io.Writer, title, xLabel string, series []Series) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	headers := []string{xLabel}
	for _, s := range series {
		headers = append(headers, s.Name)
	}
	// Collect x values from the first series (all must align).
	if len(series) == 0 {
		return fmt.Errorf("report: no series")
	}
	var rows [][]string
	for i, p := range series[0].Points {
		row := []string{trimFloat(p.X)}
		for _, s := range series {
			if i >= len(s.Points) {
				return fmt.Errorf("report: series %q has %d points, want %d", s.Name, len(s.Points), len(series[0].Points))
			}
			row = append(row, trimFloat(s.Points[i].Y))
		}
		rows = append(rows, row)
	}
	return Table(w, headers, rows)
}

// Pie renders a percentage breakdown sorted as given.
func Pie(w io.Writer, title string, slices []Segment) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	var total float64
	labelW := 0
	for _, s := range slices {
		total += s.Value
		if n := utf8.RuneCountInString(s.Name); n > labelW {
			labelW = n
		}
	}
	if total == 0 {
		total = 1
	}
	for _, s := range slices {
		pct := 100 * s.Value / total
		bar := strings.Repeat("#", int(pct/2))
		if _, err := fmt.Fprintf(w, "  %s %6.1f%% %s\n", pad(s.Name, labelW), pct, bar); err != nil {
			return err
		}
	}
	return nil
}

// Gantt prints segments laid end to end as a text gantt chart of the
// given width: one line per segment with its bar, duration and share of
// the total — the Nsight Systems view of a phase.
func Gantt(w io.Writer, title string, segs []Segment, width int) error {
	var total float64
	nameW := 0
	for _, s := range segs {
		total += s.Value
		nameW = max(nameW, len(s.Name))
	}
	if total == 0 {
		return fmt.Errorf("report: empty gantt chart")
	}
	if _, err := fmt.Fprintf(w, "%s (total %.1fs)\n", title, total); err != nil {
		return err
	}
	start := 0.0
	for _, s := range segs {
		end := start + s.Value
		dur := end - start // not s.Value: the printed span is the drawn one
		startCol := int(start / total * float64(width))
		lenCols := max(int(dur/total*float64(width)), 1)
		lenCols = min(lenCols, width-startCol)
		bar := strings.Repeat(" ", startCol) + strings.Repeat("█", lenCols)
		if _, err := fmt.Fprintf(w, "%-*s |%-*s| %7.1fs (%4.1f%%)\n",
			nameW, s.Name, width, bar, dur, 100*dur/total); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// WriteCSV writes rows, a slice of structs, as CSV: a header naming each
// exported field in declaration order, then one line per row. A map field
// becomes one column per key, named Field.key, over the keys of every row
// in sorted order (empty where a row lacks the key). Floats are written in
// the shortest form that parses back to the same bits.
func WriteCSV(w io.Writer, rows any) error {
	v := reflect.ValueOf(rows)
	type column struct {
		field int
		key   string // set for a map field's column
	}
	var header []string
	var cols []column
	t := v.Type().Elem()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() != reflect.Map {
			header = append(header, f.Name)
			cols = append(cols, column{field: i})
			continue
		}
		var keys []string
		for r := 0; r < v.Len(); r++ {
			for _, k := range v.Index(r).Field(i).MapKeys() {
				keys = append(keys, k.String())
			}
		}
		slices.Sort(keys)
		for _, k := range slices.Compact(keys) {
			header = append(header, f.Name+"."+k)
			cols = append(cols, column{field: i, key: k})
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for r := 0; r < v.Len(); r++ {
		record := make([]string, len(cols))
		for j, c := range cols {
			cell := v.Index(r).Field(c.field)
			if cell.Kind() == reflect.Map {
				if cell = cell.MapIndex(reflect.ValueOf(c.key)); !cell.IsValid() {
					continue
				}
			}
			if cell.Kind() == reflect.Float64 {
				record[j] = strconv.FormatFloat(cell.Float(), 'g', -1, 64)
			} else {
				record[j] = fmt.Sprint(cell.Interface())
			}
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatSeconds(v float64) string {
	switch {
	case v >= 3600:
		return fmt.Sprintf("%.1fh", v/3600)
	case v >= 60:
		return fmt.Sprintf("%.1fm", v/60)
	default:
		return fmt.Sprintf("%.1fs", v)
	}
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// F2 formats with two decimals (helper for experiment renderers).
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }

// F1 formats with one decimal.
func F1(v float64) string { return fmt.Sprintf("%.1f", v) }

// F0 formats with no decimals.
func F0(v float64) string { return fmt.Sprintf("%.0f", v) }

// Pct formats a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
