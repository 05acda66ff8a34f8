package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"afsysbench"
)

// The modeled-clock goldens: every row of the twelve producers, as JSON,
// with a relative tolerance per column. The modeled clock is deterministic
// (seeded jitter included), so the default tolerance only absorbs float
// formatting; the columns Figure 3 averages over jittered repeats carry
// the jitter model's documented magnitude instead, so a change to
// Suite.Runs is a drift, not a failure.

//go:embed golden/figures.json
var goldenBytes []byte

const goldenPath = "bench/golden/figures.json" // from the repository root, where the harness runs

type goldenFile struct {
	// Tolerances maps "producer.Column" to a relative tolerance; "default"
	// covers every other numeric column.
	Tolerances map[string]float64 `json:"tolerances"`
	// Producers maps a producer name to its rows, as encoding/json renders
	// the row structs.
	Producers map[string]any `json:"producers"`
}

var goldenTolerances = map[string]float64{
	"default":               1e-9,
	"fig3.MSASeconds":       0.02,  // core's MSA jitter magnitude
	"fig3.InferenceSeconds": 0.003, // core's inference jitter magnitude
	"fig3.MSACV":            1,     // a statistic of the jitter draw itself
	"fig3.InferenceCV":      1,
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenBytes, &g); err != nil {
		return nil, fmt.Errorf("golden/figures.json: %w", err)
	}
	return &g, nil
}

// normalize round-trips rows through JSON so live output and golden are
// compared in the same shape (maps, slices, float64s, strings, bools).
func normalize(rows any) (any, error) {
	b, err := json.Marshal(rows)
	if err != nil {
		return nil, err
	}
	var v any
	return v, json.Unmarshal(b, &v)
}

func (g *goldenFile) tolerance(producer, column string) float64 {
	if t, ok := g.Tolerances[producer+"."+column]; ok {
		return t
	}
	return g.Tolerances["default"]
}

// compare checks one producer's rows against the golden. It returns the
// largest relative drift seen on any numeric cell and the cells beyond
// their tolerance.
func (g *goldenFile) compare(producer string, rows any) (worst float64, bad []string, err error) {
	want, ok := g.Producers[producer]
	if !ok {
		return 0, nil, fmt.Errorf("no golden rows (run -update-golden)")
	}
	got, err := normalize(rows)
	if err != nil {
		return 0, nil, err
	}
	g.diff(producer, "", "", want, got, &worst, &bad)
	return worst, bad, nil
}

func (g *goldenFile) diff(producer, path, column string, want, got any, worst *float64, bad *[]string) {
	mismatch := func(format string, args ...any) {
		*bad = append(*bad, path+": "+fmt.Sprintf(format, args...))
	}
	switch w := want.(type) {
	case map[string]any:
		m, ok := got.(map[string]any)
		if !ok || len(m) != len(w) {
			mismatch("shape changed")
			return
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			col := column
			if col == "" {
				col = k // the struct field; nested map keys inherit it
			}
			g.diff(producer, path+"."+k, col, w[k], m[k], worst, bad)
		}
	case []any:
		s, ok := got.([]any)
		if !ok || len(s) != len(w) {
			mismatch("row count changed")
			return
		}
		for i := range w {
			g.diff(producer, fmt.Sprintf("%s[%d]", path, i), column, w[i], s[i], worst, bad)
		}
	case float64:
		f, ok := got.(float64)
		if !ok {
			mismatch("not a number")
			return
		}
		drift := math.Abs(f - w)
		if scale := math.Max(math.Abs(w), math.Abs(f)); scale > 0 {
			drift /= scale
		}
		if drift > *worst {
			*worst = drift
		}
		if drift > g.tolerance(producer, column) {
			mismatch("%v, golden %v (drift %.3g)", f, w, drift)
		}
	default:
		if want != got {
			mismatch("%v, golden %v", got, want)
		}
	}
}

// updateGolden regenerates golden/figures.json from a fresh full pass.
func updateGolden() error {
	w := &paperFigures{}
	if err := w.prepare(); err != nil {
		return err
	}
	g := goldenFile{Tolerances: goldenTolerances, Producers: make(map[string]any)}
	for _, p := range producers {
		rows, err := p.run(w.suite, afsysbench.SampleNames())
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if g.Producers[p.name], err = normalize(rows); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
