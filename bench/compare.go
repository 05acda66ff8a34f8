package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"afsysbench/internal/stats"
)

// -compare A.json B.json: the noise-aware gate. One row per (workload,
// end-to-end metric): both medians and quartiles, the ratio with its base,
// the bound from BENCHMARK.json and a verdict.

func loadSet(path string) (resultSet, error) {
	var set resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	return set, json.Unmarshal(b, &set)
}

// series collects one metric's values per workload from a result set's
// untraced runs.
func series(set resultSet) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, rec := range set.Runs {
		if rec.Trace {
			continue
		}
		m := out[rec.Workload]
		if m == nil {
			m = make(map[string][]float64)
			out[rec.Workload] = m
		}
		for name, v := range rec.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return out
}

type summary struct {
	n           int
	med, q1, q3 float64
	min, max    float64
}

func summarize(xs []float64) summary {
	s := summary{n: len(xs), med: stats.Median(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.min, s.max = sorted[0], sorted[len(sorted)-1]
	s.q1, s.q3 = s.med, s.med
	if len(xs) >= 2 {
		s.q1, s.q3 = quartiles(xs)
	}
	return s
}

// judge compares change (b) against parent (a) for one metric. worse is
// the relative move in the metric's bad direction (negative = better).
//
//	regressed   the median moved the wrong way by more than the bound
//	unresolved  either side's interquartile spread is wider than the bound
//	            and the two sets of runs interleave, so the medians decide
//	            nothing
//	improved    every run of the change reads better than every run of the
//	            parent, or the median moved the right way by more than the
//	            parent's own spread
//	within bound otherwise
func judge(a, b summary, better string, bound float64) (worse float64, verdict string) {
	if a.med == 0 {
		if b.med == 0 {
			return 0, "within bound"
		}
		return 0, "unresolved"
	}
	worse = (b.med - a.med) / a.med
	if better == higher {
		worse = -worse
	}
	spreadA := (a.q3 - a.q1) / a.med
	spreadB := 0.0
	if b.med != 0 {
		spreadB = (b.q3 - b.q1) / b.med
	}
	allBetter, allWorse := b.max < a.min, b.min > a.max
	if better == higher {
		allBetter, allWorse = allWorse, allBetter
	}
	interleave := !allBetter && !allWorse
	switch {
	case (spreadA > bound || spreadB > bound) && interleave:
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	case allBetter && a.n > 1, worse < 0 && -worse > spreadA && -worse > spreadB:
		return worse, "improved"
	default:
		return worse, "within bound"
	}
}

func runCompare(w io.Writer, pathA, pathB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return fmt.Errorf("bounds come from BENCHMARK.json: %w", err)
	}
	setA, err := loadSet(pathA)
	if err != nil {
		return err
	}
	setB, err := loadSet(pathB)
	if err != nil {
		return err
	}
	a, b := series(setA), series(setB)
	fmt.Fprintf(w, "A = %s (commit %s, %s)\nB = %s (commit %s, %s)\nratio = B median / A median; bound = share of A's median the metric may worsen by\n\n",
		pathA, setA.Env.GitCommit, setA.Env.CPUModel, pathB, setB.Env.GitCommit, setB.Env.CPUModel)
	fmt.Fprintf(w, "%-14s %-21s %3s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "n", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "ratio", "bound", "verdict")
	regressed := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, sb := summarize(a[wl.Name][m.Name]), summarize(b[wl.Name][m.Name])
			if sa.n == 0 || sb.n == 0 {
				continue
			}
			_, v := judge(sa, sb, m.Better, m.Bound)
			if v == "regressed" {
				regressed++
			}
			ratio := 0.0
			if sa.med != 0 {
				ratio = sb.med / sa.med
			}
			fmt.Fprintf(w, "%-14s %-21s %3d %12.6g %25s %12.6g %25s %8.4f %6.3f  %s\n",
				wl.Name, m.Name, sb.n, sa.med, fmt.Sprintf("[%.6g, %.6g]", sa.q1, sa.q3),
				sb.med, fmt.Sprintf("[%.6g, %.6g]", sb.q1, sb.q3), ratio, m.Bound, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs regressed", regressed)
	}
	return nil
}
