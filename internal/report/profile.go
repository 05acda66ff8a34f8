package report

import (
	"fmt"
	"io"
	"sort"

	"afsysbench/internal/simhw"
)

// Profiles: perf-report-style function-level listings from the CPU model's
// per-function counters — the suite's analog of the paper's `perf
// record`/uProf workflow (Tables IV and V).

// Metric selects the perf event a profile ranks functions by; metrics
// describes each one.
type Metric int

// The rankable events, in -metric order.
const (
	Cycles Metric = iota
	Instructions
	CacheMisses
	TLBMisses
	PageFaults
	BranchMisses
)

// metrics holds, per Metric, the afsysbench prof -metric value that
// selects it, the perf event name a listing prints, and its counter.
var metrics = [...]struct {
	flag, event string
	count       func(simhw.Counters) uint64
}{
	Cycles:       {"cycles", "cycles", func(c simhw.Counters) uint64 { return c.Cycles }},
	Instructions: {"instructions", "instructions", func(c simhw.Counters) uint64 { return c.Instructions }},
	CacheMisses:  {"cache-misses", "cache-misses", func(c simhw.Counters) uint64 { return c.LLCMisses }},
	TLBMisses:    {"dTLB", "dTLB-load-misses", func(c simhw.Counters) uint64 { return c.TLBMisses }},
	PageFaults:   {"page-faults", "page-faults", func(c simhw.Counters) uint64 { return c.PageFaults }},
	BranchMisses: {"branches", "branch-misses", func(c simhw.Counters) uint64 { return c.BranchMisses }},
}

// String returns the perf event name.
func (m Metric) String() string { return metrics[m].event }

// ParseMetric returns the metric a -metric value selects.
func ParseMetric(flag string) (Metric, error) {
	for m, e := range metrics {
		if e.flag == flag {
			return Metric(m), nil
		}
	}
	return 0, fmt.Errorf("unknown metric %q", flag)
}

// ProfileRow is one line of a profile listing.
type ProfileRow struct {
	Function string
	Value    float64
	SharePct float64
}

// Profile ranks the per-function counters by the metric, descending (ties
// by function name), keeping functions at or above minSharePct.
func Profile(perFunc map[string]simhw.Counters, metric Metric, minSharePct float64) []ProfileRow {
	var total float64
	for _, c := range perFunc {
		total += float64(metrics[metric].count(c))
	}
	if total == 0 {
		return nil
	}
	var rows []ProfileRow
	for fn, c := range perFunc {
		v := float64(metrics[metric].count(c))
		share := 100 * v / total
		if share < minSharePct {
			continue
		}
		rows = append(rows, ProfileRow{Function: fn, Value: v, SharePct: share})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Value != rows[j].Value {
			return rows[i].Value > rows[j].Value
		}
		return rows[i].Function < rows[j].Function
	})
	return rows
}

// WriteProfile prints a perf-report-style listing for the metric.
func WriteProfile(w io.Writer, title string, perFunc map[string]simhw.Counters, metric Metric, minSharePct float64) error {
	if _, err := fmt.Fprintf(w, "# %s — samples by %s\n", title, metric); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# %-9s %-28s %s\n", "overhead", "symbol", "count"); err != nil {
		return err
	}
	for _, r := range Profile(perFunc, metric, minSharePct) {
		if _, err := fmt.Fprintf(w, "  %6.2f%%   %-28s %.3g\n", r.SharePct, r.Function, r.Value); err != nil {
			return err
		}
	}
	return nil
}

// PerfStat prints a perf-stat style summary of aggregate counters: the
// same derived metrics Table III reports, plus raw counts.
func PerfStat(w io.Writer, title string, c simhw.Counters, seconds float64) error {
	if _, err := fmt.Fprintf(w, "# perf stat — %s\n", title); err != nil {
		return err
	}
	rows := []struct {
		label string
		value string
	}{
		{"instructions", fmt.Sprintf("%d", c.Instructions)},
		{"cycles", fmt.Sprintf("%d", c.Cycles)},
		{"IPC", fmt.Sprintf("%.2f", c.IPC())},
		{"L1-dcache-loads", fmt.Sprintf("%d", c.Loads)},
		{"L1-dcache-misses", fmt.Sprintf("%d (%.2f%%)", c.L1Misses, c.L1MissPct())},
		{"LLC-references", fmt.Sprintf("%d", c.LLCRefs)},
		{"LLC-misses", fmt.Sprintf("%d (%.1f%%)", c.LLCMisses, c.LLCMissPct())},
		{"cache-miss MPKI", fmt.Sprintf("%.1f", c.CacheMissMPKI())},
		{"dTLB-load-misses", fmt.Sprintf("%d (%.2f%%)", c.TLBMisses, c.DTLBMissPct())},
		{"branches", fmt.Sprintf("%d", c.Branches)},
		{"branch-misses", fmt.Sprintf("%d (%.2f%%)", c.BranchMisses, c.BranchMissPct())},
		{"page-faults", fmt.Sprintf("%d", c.PageFaults)},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "  %-20s %s\n", r.label, r.value); err != nil {
			return err
		}
	}
	if seconds > 0 {
		if _, err := fmt.Fprintf(w, "  %-20s %.3f\n", "seconds (simulated)", seconds); err != nil {
			return err
		}
	}
	return nil
}

// CompareProfiles renders two profiles side by side (e.g. 1T vs 4T),
// matching Table IV's layout. Functions are ranked by the first profile.
func CompareProfiles(w io.Writer, title string, metric Metric, labels [2]string, profiles [2]map[string]simhw.Counters, minSharePct float64) error {
	first := Profile(profiles[0], metric, minSharePct)
	second := map[string]float64{}
	for _, r := range Profile(profiles[1], metric, 0) {
		second[r.Function] = r.SharePct
	}
	if _, err := fmt.Fprintf(w, "# %s — %s\n", title, metric); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# %-28s %10s %10s\n", "symbol", labels[0], labels[1]); err != nil {
		return err
	}
	for _, r := range first {
		if _, err := fmt.Fprintf(w, "  %-28s %9.2f%% %9.2f%%\n", r.Function, r.SharePct, second[r.Function]); err != nil {
			return err
		}
	}
	return nil
}
