package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden snapshots for the fully deterministic experiments: the platform
// and sample tables and the Figure 2 memory sweep. These catch accidental
// drift in the encoded paper facts or the render format.

func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = io.Copy(&buf, r)
		done <- buf.String()
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", runErr, out)
	}
	return out
}

func TestGoldenFigure2(t *testing.T) {
	out := captureStdout(t, func() error { return run([]string{"-exp", "fig2"}) })
	want := strings.TrimLeft(`
Figure 2: peak memory vs RNA sequence length (nhmmer)
  main memory: 512 GiB; with CXL expansion: 768 GiB
RNA length  peak GiB  server           server+CXL  provenance
----------  --------  ---------------  ----------  ----------------------------------------
621         79.3      OK               OK          measured
935         506.0     NEEDS-EXPANSION  OK          measured
1135        644.0     NEEDS-EXPANSION  OK          measured, required CXL expansion
1335        810.0     OOM              OOM         projected (run OOM-killed above 768 GiB)
`, "\n")
	if out != want {
		t.Errorf("figure 2 output drifted:\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}

func TestGoldenTable1ContainsPaperFacts(t *testing.T) {
	out := captureStdout(t, func() error { return run([]string{"-exp", "tab1"}) })
	for _, fact := range []string{
		"Intel Xeon Gold 5416S", "16/32", "2.0/4.0 GHz", "30 MiB", "512 GiB", "H100",
		"AMD Ryzen 9 7900X", "12/24", "4.7/5.6 GHz", "64 MiB", "RTX 4080",
	} {
		if !strings.Contains(out, fact) {
			t.Errorf("Table I missing %q", fact)
		}
	}
}

func TestGoldenTable2ContainsSampleFacts(t *testing.T) {
	out := captureStdout(t, func() error { return run([]string{"-exp", "tab2"}) })
	for _, fact := range []string{"2PV7", "484", "7RCE", "306", "1YY9", "881", "promo", "857", "6QNR", "1395", "600"} {
		if !strings.Contains(out, fact) {
			t.Errorf("Table II missing %q", fact)
		}
	}
}

func TestGoldenDeterminism(t *testing.T) {
	a := captureStdout(t, func() error { return run([]string{"-exp", "fig2"}) })
	b := captureStdout(t, func() error { return run([]string{"-exp", "fig2"}) })
	if a != b {
		t.Error("deterministic experiment produced different output across runs")
	}
}

// captureRun invokes the CLI entry point, returning stdout, the exit code
// and the error (which some failure classes legitimately carry).
func captureRun(t *testing.T, args []string) (string, int, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = io.Copy(&buf, r)
		done <- buf.String()
	}()
	code, runErr := runCLI(args)
	w.Close()
	os.Stdout = old
	return <-done, code, runErr
}

func TestGoldenRunDegradedExitAndReport(t *testing.T) {
	args := []string{"-run", "2PV7", "-machine", "desktop", "-threads", "4",
		"-faults", "transient:uniref_s:2,permanent:mgnify_s"}
	out, code, err := captureRun(t, args)
	if err != nil {
		t.Fatalf("degraded run must not error: %v", err)
	}
	if code != exitDegraded {
		t.Fatalf("exit = %d, want %d (degraded success)", code, exitDegraded)
	}
	// The resilience block is seeded, not wall-clock: it must match byte
	// for byte, retry waits included.
	want := strings.TrimLeft(`
resilience: retries=2 retry_wait=1.37s dropped=1 single_sequence=false degraded=true
  msa     retry           uniref_s (0.53s): open attempt 1 failed; backing off
  msa     retry           uniref_s (0.84s): open attempt 2 failed; backing off
  msa     drop-db         mgnify_s: resilience: database mgnify_s unavailable after 1 attempts: resilience: injected permanent fault on mgnify_s (attempt 1)
`, "\n")
	if !strings.Contains(out, want) {
		t.Errorf("resilience report drifted:\n--- got ---\n%s\n--- want block ---\n%s", out, want)
	}
	// And the whole report (timings included) is reproducible.
	again, code2, _ := captureRun(t, args)
	if out != again || code2 != code {
		t.Error("repeat faulted run produced different output or exit code")
	}
}

func TestGoldenRunExitCodes(t *testing.T) {
	// Clean run: exit 0.
	out, code, err := captureRun(t, []string{"-run", "2PV7", "-machine", "desktop", "-threads", "4"})
	if err != nil || code != exitOK {
		t.Fatalf("clean run: code=%d err=%v", code, err)
	}
	if strings.Contains(out, "resilience:") {
		t.Error("clean run printed a resilience block")
	}
	// Modeled inference budget exceeded: exit 3, typed error.
	_, code, err = captureRun(t, []string{"-run", "2PV7", "-machine", "desktop", "-threads", "4",
		"-stage-budget", "inference=0.01"})
	if code != exitTimeout {
		t.Fatalf("budget timeout: code=%d err=%v", code, err)
	}
	if err == nil || !strings.Contains(err.Error(), "stage inference") {
		t.Errorf("timeout error = %v, want stage inference", err)
	}
	// Single-sequence fallback still counts as degraded success.
	_, code, err = captureRun(t, []string{"-run", "2PV7", "-machine", "desktop", "-threads", "4",
		"-faults", "permanent:*"})
	if err != nil || code != exitDegraded {
		t.Fatalf("single-sequence run: code=%d err=%v", code, err)
	}
	// Flag errors are the generic class.
	_, code, err = captureRun(t, []string{"-run", "2PV7", "-machine", "hal9000"})
	if code != exitError || err == nil {
		t.Fatalf("bad machine: code=%d err=%v", code, err)
	}
	_, code, err = captureRun(t, []string{"-run", "2PV7", "-stage-budget", "warp=9"})
	if code != exitError || err == nil {
		t.Fatalf("bad budget: code=%d err=%v", code, err)
	}
	_, code, err = captureRun(t, []string{"-run", "nosuchsample"})
	if code != exitError || err == nil {
		t.Fatalf("bad sample: code=%d err=%v", code, err)
	}
}

// TestGoldenModes holds the prof, memest and calib modes to the stdout of
// the three binaries they replaced: each golden was captured from the
// parent commit's binary run with the same flags.
func TestGoldenModes(t *testing.T) {
	input := filepath.Join(t.TempDir(), "in.json")
	if err := os.WriteFile(input, []byte(miniAF3JSON), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		golden string
		args   []string
	}{
		{"prof_msa", []string{"prof", "-sample", "2PV7", "-machine", "Server", "-threads", "2"}},
		{"prof_compare", []string{"prof", "-sample", "2PV7", "-machine", "Server", "-compare"}},
		{"prof_timeline", []string{"prof", "-sample", "2PV7", "-machine", "Desktop", "-phase", "timeline"}},
		{"prof_inference", []string{"prof", "-sample", "2PV7", "-machine", "Server", "-phase", "inference"}},
		{"prof_layers", []string{"prof", "-sample", "2PV7", "-machine", "Server", "-phase", "layers"}},
		{"prof_hits", []string{"prof", "-sample", "2PV7", "-phase", "hits"}},
		{"memest_sample", []string{"memest", "-sample", "6QNR"}},
		{"memest_max_rna", []string{"memest", "-max-rna"}},
		{"memest_input", []string{"memest", "-input", input}},
		{"calib_2PV7", []string{"calib", "-samples", "2PV7"}},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		out, code, err := captureRun(t, c.args)
		if err != nil || code != exitOK {
			t.Errorf("%v: code=%d err=%v", c.args, code, err)
		}
		if out != string(want) {
			t.Errorf("%v drifted from testdata/%s.golden:\n--- got ---\n%s\n--- want ---\n%s", c.args, c.golden, out, want)
		}
	}
}

// TestModeWordOnlyFirst: a word that is not a mode falls through to the
// suite's flag set, which has nothing to do without -list, -exp or -run.
func TestModeWordOnlyFirst(t *testing.T) {
	for _, args := range [][]string{{"profile"}, {"-runs", "1", "prof"}} {
		_, code, err := captureRun(t, args)
		if code != exitError || err == nil || !strings.Contains(err.Error(), "nothing to do") {
			t.Errorf("%v: code=%d err=%v, want the nothing-to-do usage error", args, code, err)
		}
	}
}

// TestRunDefaultsToEightThreads: -threads defaults to the Figure 3 sweep
// for experiments only; a -run without it uses AF3's default of 8.
func TestRunDefaultsToEightThreads(t *testing.T) {
	out, code, err := captureRun(t, []string{"-run", "2PV7"})
	if err != nil || code != exitOK {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if want := "2PV7 on Server (8 threads)\n"; !strings.HasPrefix(out, want) {
		t.Errorf("-run without -threads starts %q, want %q", strings.SplitN(out, "\n", 2)[0], want)
	}
	out, _, _ = captureRun(t, []string{"-run", "2PV7", "-threads", "2,4"})
	if want := "2PV7 on Server (2 threads)\n"; !strings.HasPrefix(out, want) {
		t.Errorf("-run -threads 2,4 starts %q, want %q", strings.SplitN(out, "\n", 2)[0], want)
	}
}
