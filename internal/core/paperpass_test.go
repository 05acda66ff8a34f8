package core

import (
	"testing"

	"afsysbench/internal/inputs"
)

// newPaperSuite builds a suite the way the repo benchmark's paper_figures
// workload prepares one: three repeats per Figure 3 cell, and the XLA
// artifacts of every sample's token count compiled on both platforms.
func newPaperSuite(tb testing.TB) *Suite {
	tb.Helper()
	s, err := NewSuite()
	if err != nil {
		tb.Fatal(err)
	}
	s.Runs = 3
	for _, in := range inputs.Samples() {
		for _, mach := range TwoPlatforms() {
			if _, err := s.CompileSim(MachineFor(in, mach), in.TotalResidues()); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s
}

// paperPass runs the twelve figure and table producers once over every
// sample, as one paper_figures pass does.
func paperPass(tb testing.TB, s *Suite) {
	tb.Helper()
	names, two := SampleNames(), TwoPlatforms()
	for _, produce := range []func() error{
		func() error { Figure2(); return nil },
		func() error { _, err := s.Figure3(names, two, MSAThreadSweep); return err },
		func() error { _, err := s.Figure4(names, two); return err },
		func() error { _, err := s.Figure5(); return err },
		func() error { _, err := s.Figure6(names, two); return err },
		func() error { _, err := s.Figure7(names, two); return err },
		func() error { _, err := s.Figure8(names, two); return err },
		func() error { _, err := s.Figure9(); return err },
		func() error { _, err := s.Table3(names); return err },
		func() error { _, err := s.Table4(names); return err },
		func() error { _, err := s.Table5(names); return err },
		func() error { _, err := s.Table6(); return err },
	} {
		if err := produce(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestPaperPassCountsWork counts what one pass of the twelve producers
// costs the MSA memo. The pass asks for 345 MSA phases: 5 samples × 5
// thread counts, on Server and Desktop (the upgraded desktop for 6QNR).
// A thread count only re-cuts the attribution of a search, so the memo
// holds 5 searches (not 25) and 50 machine replays (not 345).
func TestPaperPassCountsWork(t *testing.T) {
	s := newPaperSuite(t)
	paperPass(t, s)
	searches, views, replays := len(s.msaMemo), 0, 0
	for _, e := range s.msaMemo {
		views += len(e.views)
		for _, v := range e.views {
			replays += len(v.sims)
		}
	}
	if searches != 5 || views != 25 || replays != 50 {
		t.Fatalf("a paper pass made %d searches, %d thread-count views and %d MSA replays; want 5, 25 and 50",
			searches, views, replays)
	}
}

// BenchmarkPaperPass is one paper_figures pass on a fresh suite, with the
// suite build and the XLA warm-up outside the timer as the workload has
// them. It exists to be profiled: `make profile-figures`.
func BenchmarkPaperPass(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newPaperSuite(b)
		b.StartTimer()
		paperPass(b, s)
	}
}
