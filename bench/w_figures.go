package main

import (
	"fmt"
	"time"

	"afsysbench"

	"afsysbench/internal/stats"
)

// producer is one of the paper's twelve figure/table data producers,
// reached through the public afsysbench package like any downstream user.
type producer struct {
	name string
	// sampled producers take the sample list; -smoke hands them a short
	// one and skips their golden check.
	sampled bool
	run     func(s *afsysbench.Suite, samples []string) (any, error)
}

var producers = []producer{
	{"fig2", false, func(*afsysbench.Suite, []string) (any, error) { return afsysbench.Figure2(), nil }},
	{"fig3", true, func(s *afsysbench.Suite, names []string) (any, error) {
		return s.Figure3(names, afsysbench.TwoPlatforms(), afsysbench.MSAThreadSweep)
	}},
	{"fig4", true, func(s *afsysbench.Suite, names []string) (any, error) {
		return s.Figure4(names, afsysbench.TwoPlatforms())
	}},
	{"fig5", false, func(s *afsysbench.Suite, _ []string) (any, error) { return s.Figure5() }},
	{"fig6", true, func(s *afsysbench.Suite, names []string) (any, error) {
		return s.Figure6(names, afsysbench.TwoPlatforms())
	}},
	{"fig7", true, func(s *afsysbench.Suite, names []string) (any, error) {
		return s.Figure7(names, afsysbench.TwoPlatforms())
	}},
	{"fig8", true, func(s *afsysbench.Suite, names []string) (any, error) {
		return s.Figure8(names, afsysbench.TwoPlatforms())
	}},
	{"fig9", false, func(s *afsysbench.Suite, _ []string) (any, error) { return s.Figure9() }},
	{"tab3", true, func(s *afsysbench.Suite, names []string) (any, error) { return s.Table3(names) }},
	{"tab4", true, func(s *afsysbench.Suite, names []string) (any, error) { return s.Table4(names) }},
	{"tab5", true, func(s *afsysbench.Suite, names []string) (any, error) { return s.Table5(names) }},
	{"tab6", false, func(s *afsysbench.Suite, _ []string) (any, error) { return s.Table6() }},
}

// smokeSamples keeps -smoke's sampled producers to the two small samples;
// fig5 (the 6QNR deep-dive) is skipped there outright.
var smokeSamples = []string{"2PV7", "7RCE"}

const figureRuns = 3 // Suite.Runs: repeats per Figure 3 cell

// paperFigures regenerates the paper: one pass of all twelve producers on
// a fresh suite. An op is one producer. There is no warm-up pass — the
// first user of a fresh process is exactly what this workload is.
type paperFigures struct {
	suite  *afsysbench.Suite
	golden *goldenFile
	passes int
}

// prepare builds the suite a pass runs on and finishes its lazy set-up:
// the XLA artifacts of every sample's token count, on both platforms.
func (w *paperFigures) prepare() error {
	suite, err := afsysbench.NewSuite()
	if err != nil {
		return err
	}
	suite.Runs = figureRuns
	for _, in := range afsysbench.Samples() {
		for _, mach := range afsysbench.TwoPlatforms() {
			if _, err := suite.CompileSim(afsysbench.MachineFor(in, mach), in.TotalResidues()); err != nil {
				return err
			}
		}
	}
	w.suite = suite
	return nil
}

func (w *paperFigures) setup(r *run) error {
	var err error
	if w.golden, err = loadGolden(); err != nil {
		return err
	}
	w.passes = 0
	return w.prepare()
}

func (w *paperFigures) round(r *run, i int) error {
	if i < 0 {
		return nil // no warm-up
	}
	if w.passes > 0 {
		if err := w.prepare(); err != nil {
			return err
		}
	}
	w.passes++
	outputs := make(map[string]any, len(producers))
	var firstErr error
	r.window(len(producers), func() int {
		done := 0
		for _, p := range producers {
			t0 := time.Now()
			rows, err := w.produce(r, p)
			end := time.Now()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", p.name, err)
				}
				r.fail("%s: %v", p.name, err)
				continue
			}
			done++
			outputs[p.name] = rows
			if r.tr != nil {
				r.tr.add("core.exp."+p.name, t0, end, -1, -1)
				r.layer["core.exp."+p.name+"_s"] = end.Sub(t0).Seconds()
			}
		}
		return done
	})

	// Twelve producers of unlike size (one is ten seconds, most are
	// milliseconds) support no percentile, so this workload's op latency is
	// the pass's mean wall per producer: op_p50_ms and op_p90_ms both read
	// 1000 / ops_per_s here.
	if done := r.roundOps[len(r.roundOps)-1]; done > 0 {
		r.lat = append(r.lat, 1e3*r.walls[len(r.walls)-1]/float64(done))
	}

	// Correctness beside the timing: every cell against the committed
	// golden; a cell out of tolerance fails its producer.
	drift := 0.0
	completed := 0
	for _, p := range producers {
		rows, ok := outputs[p.name]
		if !ok {
			continue
		}
		if r.smoke && p.sampled {
			completed++ // smoke's reduced matrix has no golden
			continue
		}
		if r.smoke && p.name == "fig5" {
			completed++
			continue
		}
		worst, bad, err := w.golden.compare(p.name, rows)
		switch {
		case err != nil:
			r.fail("golden %s: %v", p.name, err)
		case len(bad) > 0:
			r.fail("golden %s: %d cells out of tolerance, first %s", p.name, len(bad), bad[0])
		default:
			completed++
		}
		if worst > drift {
			drift = worst
		}
	}
	if r.tr != nil {
		r.layer["core.golden_drift_max_pct"] = 100 * drift
	}
	var totals []float64
	if rows, ok := outputs["fig3"].([]afsysbench.PhaseRow); ok {
		for _, row := range rows {
			totals = append(totals, row.Total())
		}
	}
	// The Fig. 3 matrix is this workload's modeled clock: its cells' mean
	// and 95th percentile stand where the serving workloads have requests.
	r.modeled = append(r.modeled, totals...)
	r.victimP95 = append(r.victimP95, stats.Percentile(totals, 95))
	r.served = append(r.served, float64(completed)/float64(len(producers)))
	return firstErr
}

func (w *paperFigures) produce(r *run, p producer) (any, error) {
	switch {
	case !r.smoke:
		return p.run(w.suite, afsysbench.SampleNames())
	case p.name == "fig5":
		return []afsysbench.ScalingRow{}, nil
	default:
		return p.run(w.suite, smokeSamples)
	}
}

func (w *paperFigures) traced(r *run) error {
	if err := w.round(r, 0); err != nil {
		return err
	}
	names := afsysbench.SampleNames()
	if r.smoke {
		names = smokeSamples
	}
	r.hmmerPass(w.suite, names)
	r.msaPass(w.suite, names, r.corePass(w.suite, names), true)
	r.simPasses(w.suite, names)
	r.kernelPass()
	return nil
}

func (w *paperFigures) close() {}
