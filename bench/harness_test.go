package main

import (
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestSupportedPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{12, 0, false},  // paper_figures: twelve producers support nothing
		{19, 0, false},  // nine beyond the median
		{20, 50, true},  // exactly ten beyond the median
		{99, 50, true},  // 9.9 beyond p90
		{100, 90, true}, // exactly ten beyond p90
		{108, 90, true}, // cold_msa's three rounds: p90, not p95 (5.4 beyond)
		{200, 95, true},
		{1000, 99, true},
		{12000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := supportedPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-point quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestTracesArePureFunctionsOfSeed(t *testing.T) {
	ppi := &ppiTwoTier{pairs: []string{"a", "b", "c", "d", "e", "f", "g", "h"}}
	build := func(seed uint64) [][]string {
		events, err := stormEvents(stormTenants(false), seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		var storm []string
		for _, e := range events {
			storm = append(storm, e.tenant+"/"+e.sample+"/"+time.Duration(e.arrival*1e9).String())
		}
		r := &run{seed: seed}
		return [][]string{coldTrace(seed, 0, false), coldTrace(seed, 1, false), ppi.trace(r, 0), storm}
	}
	a, again, b := build(7), build(7), build(8)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed built different traces")
	}
	for i := range a {
		if reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("trace %d is the same under seeds 7 and 8", i)
		}
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Error("rounds 0 and 1 of one seed share a shuffle")
	}
	// A shuffle reorders; it never changes the mix.
	counts := func(xs []string) map[string]int {
		m := make(map[string]int)
		for _, x := range xs {
			m[x]++
		}
		return m
	}
	if !reflect.DeepEqual(counts(a[0]), counts(b[0])) {
		t.Error("the seed changed cold_msa's mix, not just its order")
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "root", Start: at(0), End: at(100), Parent: -1},
		{Name: "a", Start: at(10), End: at(40), Parent: 0},
		{Name: "b", Start: at(30), End: at(60), Parent: 0},  // overlaps a by 10
		{Name: "c", Start: at(90), End: at(120), Parent: 0}, // runs past the root
		{Name: "a.leaf", Start: at(10), End: at(15), Parent: 1},
	}
	want := []time.Duration{40, 25, 30, 30, 5} // ms: 100 - (50 + 10)
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("self time of %s = %v, want %vms", spans[i].Name, got[i], int(want[i]))
		}
	}
}

func TestJudge(t *testing.T) {
	tight := func(med float64) summary {
		return summary{n: 10, med: med, q1: med * 0.995, q3: med * 1.005, min: med * 0.99, max: med * 1.01}
	}
	wide := func(med float64) summary {
		return summary{n: 10, med: med, q1: med * 0.8, q3: med * 1.2, min: med * 0.7, max: med * 1.3}
	}
	cases := []struct {
		name   string
		a, b   summary
		better string
		bound  float64
		want   string
	}{
		{"same", tight(100), tight(100.5), lower, 0.08, "within bound"},
		{"slower latency", tight(100), tight(115), lower, 0.08, "regressed"},
		{"lower throughput", tight(100), tight(85), higher, 0.08, "regressed"},
		{"faster latency", tight(100), tight(80), lower, 0.08, "improved"},
		{"higher throughput", tight(100), tight(120), higher, 0.08, "improved"},
		{"noisy and interleaved", wide(100), wide(105), lower, 0.08, "unresolved"},
		{"noisy but every run better", wide(100), tight(50), lower, 0.08, "improved"},
	}
	for _, c := range cases {
		if _, got := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestGoldenDiffHonoursColumnTolerances(t *testing.T) {
	g := &goldenFile{
		Tolerances: map[string]float64{"default": 1e-9, "fig3.MSASeconds": 0.02},
		Producers: map[string]any{"fig3": []any{
			map[string]any{"Sample": "2PV7", "MSASeconds": 100.0, "InferenceSeconds": 10.0},
		}},
	}
	type row struct {
		Sample                       string
		MSASeconds, InferenceSeconds float64
	}
	worst, bad, err := g.compare("fig3", []row{{"2PV7", 101, 10}})
	if err != nil || len(bad) != 0 || math.Abs(worst-1.0/101) > 1e-12 {
		t.Errorf("1%% drift on a 2%% column: worst %v, bad %v, err %v", worst, bad, err)
	}
	if _, bad, _ = g.compare("fig3", []row{{"2PV7", 100, 10.001}}); len(bad) != 1 {
		t.Errorf("drift on a default-tolerance column went unnoticed: %v", bad)
	}
	if _, bad, _ = g.compare("fig3", []row{{"7RCE", 100, 10}}); len(bad) != 1 {
		t.Errorf("a changed label went unnoticed: %v", bad)
	}
	if _, bad, _ = g.compare("fig3", []row{}); len(bad) != 1 {
		t.Errorf("a missing row went unnoticed: %v", bad)
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the harness's
// tables one definition, and holds both to the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := readSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	want := benchmarkSpec()
	a, _ := json.Marshal(onDisk)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Fatal("BENCHMARK.json is stale; regenerate with -write-spec")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is outside the contract", u, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range want.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("why of %s is %d characters", w.Name, len(w.Why))
		}
		if newWorkload(w.Name) == nil || nominalRounds[w.Name] == 0 {
			t.Errorf("workload %s is named but not implemented", w.Name)
		}
	}
	hasSetup := false
	for _, m := range want.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s is outside (0, 0.25]", m.Bound, m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range want.PerLayer {
		check(m.Name, m.Unit)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

// TestSmokeRunEmitsEveryMetric runs one small workload both ways and
// checks what it emits against the tables. measure itself fails a traced
// run whose passes wrote anything but the workload's column of layerSpecs,
// so a per-layer metric no pass emits cannot reach here as a silent 0.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	const workload = "ppi_two_tier"
	for _, trace := range []bool{false, true} {
		v, d, err := measure(options{workload: workload, seed: 7, seconds: nominalSeconds, smoke: true, trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		if !v.Correct || v.Attempted < 1 || v.Failed != 0 {
			t.Errorf("trace %v: correct %v, attempted %d, failed %d", trace, v.Correct, v.Attempted, v.Failed)
		}
		want := make(map[string]string)
		var written []string
		if trace {
			for _, s := range layerSpecs {
				want[s.Name] = s.Unit
				if s.On.has(workload) {
					written = append(written, s.Name)
				}
			}
			if !reflect.DeepEqual(d.Layers, written) {
				t.Errorf("passes wrote %v\nlayerSpecs lists %v", d.Layers, written)
			}
		} else {
			for _, s := range e2eSpecs {
				want[s.Name] = s.Unit
			}
		}
		if len(v.Metrics) != len(want) {
			t.Errorf("trace %v: %d metrics emitted, %d named", trace, len(v.Metrics), len(want))
		}
		for name, u := range want {
			m, ok := v.Metrics[name]
			if !ok || m.Unit != u {
				t.Errorf("trace %v: %s missing or in the wrong unit (%q)", trace, name, m.Unit)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("trace %v: %s = %v", trace, name, m.Value)
			}
			if !trace && m.Value == 0 {
				t.Errorf("end-to-end metric %s read 0", name)
			}
		}
	}
}

// TestEveryLayerMetricHasAWorkload: a per-layer name no workload's traced
// run writes would read 0 everywhere.
func TestEveryLayerMetricHasAWorkload(t *testing.T) {
	for _, s := range layerSpecs {
		if s.On&onAll == 0 {
			t.Errorf("%s is written by no workload", s.Name)
		}
	}
	if workloadSet(1)<<len(workloadSpecs)-1 != onAll {
		t.Error("onAll does not cover workloadSpecs")
	}
}
