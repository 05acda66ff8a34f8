package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"afsysbench/internal/core"
	"afsysbench/internal/resilience"
)

func TestRunList(t *testing.T) {
	for _, target := range []string{"platforms", "samples"} {
		if _, err := runCLI([]string{"-list", target}); err != nil {
			t.Errorf("-list %s: %v", target, err)
		}
	}
	if _, err := runCLI([]string{"-list", "bogus"}); err == nil {
		t.Error("bogus list target accepted")
	}
}

// TestRunRefusesDiskFaults: -run has no disk tier for a diskfault term to
// reach, so -faults refuses it before any run starts.
func TestRunRefusesDiskFaults(t *testing.T) {
	_, err := runCLI([]string{"-run", "2PV7", "-faults", "diskfault:read:1"})
	if err == nil || !strings.Contains(err.Error(), "chaos-disk") {
		t.Fatalf("-faults diskfault:read:1: error %v, want one naming the chaos-disk gate", err)
	}
}

func TestRunRequiresWork(t *testing.T) {
	if _, err := runCLI(nil); err == nil {
		t.Error("no-op invocation accepted")
	}
}

// TestRunFig2WithCSV: -csv writes the producer's rows as they are, one
// column per field (the verdict map one per machine), floats unrounded.
func TestRunFig2WithCSV(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCLI([]string{"-exp", "fig2", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	want := `RNALen,PeakGiB,VerdictOn.Server,VerdictOn.Server+CXL,Note
621,79.29999999981374,OK,OK,measured
935,506,NEEDS-EXPANSION,OK,measured
1135,644,NEEDS-EXPANSION,OK,"measured, required CXL expansion"
1335,810,OOM,OOM,projected (run OOM-killed above 768 GiB)
`
	if string(got) != want {
		t.Errorf("fig2.csv =\n%s\nwant\n%s", got, want)
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if _, err := runCLI([]string{"-exp", "fig2", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunBadProfilePath(t *testing.T) {
	if _, err := runCLI([]string{"-exp", "fig2", "-cpuprofile", "/nonexistent-dir/cpu.pprof"}); err == nil {
		t.Error("unwritable cpuprofile path accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := runCLI([]string{"-exp", "fig99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunBadThreads: a thread count below 1 is refused, not run as the
// pipeline's 8-thread default under a "0T" or "-3T" label.
func TestRunBadThreads(t *testing.T) {
	for _, threads := range []string{"two", "0", "8,-3"} {
		if code, err := runCLI([]string{"-exp", "fig3", "-samples", "2PV7", "-threads", threads}); err == nil || code != exitError {
			t.Errorf("-threads %s: exit %d, err %v; want a refusal", threads, code, err)
		}
	}
	if _, err := runCLI([]string{"prof", "-threads", "0"}); err == nil {
		t.Error("prof -threads 0 accepted")
	}
}

func TestPick(t *testing.T) {
	got := pick([]string{"2PV7", "6QNR"}, "2PV7", "promo")
	if len(got) != 1 || got[0] != "2PV7" {
		t.Errorf("pick = %v", got)
	}
	got = pick([]string{"6QNR"}, "2PV7", "promo")
	if len(got) != 2 {
		t.Errorf("fallback pick = %v", got)
	}
}

func TestExitCodeClasses(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, exitOK},
		{errors.New("anything"), exitError},
		{core.ErrProjectedOOM{}, exitOOMGate},
		{fmt.Errorf("run: %w", core.ErrProjectedOOM{}), exitOOMGate},
		{resilience.ErrStageTimeout{Stage: "inference"}, exitTimeout},
		{fmt.Errorf("run: %w", resilience.ErrStageTimeout{Stage: "msa", Cause: context.Canceled}), exitTimeout},
		{context.DeadlineExceeded, exitTimeout},
	}
	for _, c := range cases {
		if got := exitCodeFor(c.err); got != c.want {
			t.Errorf("exitCodeFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestParseStageBudget(t *testing.T) {
	b, err := parseStageBudget("msa=3000, inference=400")
	if err != nil || b.MSASeconds != 3000 || b.InferenceSeconds != 400 {
		t.Fatalf("budget = %+v, err = %v", b, err)
	}
	if b, err := parseStageBudget(""); err != nil || b != (resilience.StageBudget{}) {
		t.Errorf("empty spec: %+v, %v", b, err)
	}
	for _, bad := range []string{"msa", "msa=x", "msa=-1", "gpu=5"} {
		if _, err := parseStageBudget(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}
