package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// gateReport is shaped like the CLIs' gate reports: fields of its own plus
// an embedded Verdict.
type gateReport struct {
	Seed uint64 `json:"seed"`
	Verdict
}

func TestVerdictFinish(t *testing.T) {
	dir := t.TempDir()

	// Failing gate: violations printed, JSON written with the flat key,
	// the error names the count and the reproduction line.
	rep := gateReport{Seed: 7}
	rep.Failf("pool lost %d workers", 2)
	rep.Failf("job %s stuck", "j0001")
	var out bytes.Buffer
	path := filepath.Join(dir, "fail.json")
	err := rep.Finish(&out, "demo", rep, path, "afload -demo -seed 7")
	if err == nil || !strings.Contains(err.Error(), "demo FAILED (2 violations)") || !strings.Contains(err.Error(), "reproduce with: afload -demo -seed 7") {
		t.Fatalf("error = %v", err)
	}
	for _, want := range []string{"demo VIOLATION: pool lost 2 workers\n", "demo VIOLATION: job j0001 stuck\n", "wrote " + path} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output %q lacks %q", out.String(), want)
		}
	}
	if strings.Contains(out.String(), "all invariants held") {
		t.Fatalf("failing gate printed the pass line: %q", out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if v, ok := doc["violations"].([]any); !ok || len(v) != 2 || doc["seed"] != float64(7) || len(doc) != 2 {
		t.Fatalf("report JSON is not flat {seed, violations}: %s", raw)
	}

	// Passing gate: pass line, nil error, no violations key, no file
	// without a path.
	pass := gateReport{Seed: 8}
	out.Reset()
	if err := pass.Finish(&out, "demo", pass, "", "unused"); err != nil {
		t.Fatal(err)
	}
	if out.String() != "demo: all invariants held\n" {
		t.Fatalf("pass output %q", out.String())
	}
	path = filepath.Join(dir, "pass.json")
	if err := pass.Finish(&out, "demo", pass, path, "unused"); err != nil {
		t.Fatal(err)
	}
	if raw, _ = os.ReadFile(path); strings.Contains(string(raw), "violations") {
		t.Fatalf("passing report carries a violations key: %s", raw)
	}

	// An unwritable path is an error of its own.
	if err := pass.Finish(&out, "demo", pass, filepath.Join(dir, "no-such-dir", "x.json"), "unused"); err == nil {
		t.Fatal("unwritable -json path not reported")
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// 200 ms. Servers stopped by the package's earlier tests are still winding
// down when the next test starts, and a baseline taken before they are gone
// sits above the real one by as many goroutines as are about to exit.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for quiet := 0; quiet < 20; quiet++ {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, quiet = m, 0
		}
	}
	return n
}

func TestAwaitGoroutines(t *testing.T) {
	// Not runtime.NumGoroutine() as it stands: with the machine loaded, an
	// earlier test's goroutine exiting during the last case below cancelled
	// out the parked one and the leak went unreported.
	baseline := settledGoroutines()
	var clean Verdict
	clean.AwaitGoroutines(baseline)
	if len(clean.Violations) != 0 {
		t.Fatalf("no goroutine started, yet: %v", clean.Violations)
	}

	// A goroutine that exits shortly after is waited for, not reported.
	brief := make(chan struct{})
	go func() { <-brief }()
	close(brief)
	clean.AwaitGoroutines(baseline)
	if len(clean.Violations) != 0 {
		t.Fatalf("an exiting goroutine was reported: %v", clean.Violations)
	}

	// A parked one is a leak.
	if testing.Short() {
		t.Skip("the leak verdict waits out the 5 s grace period")
	}
	park := make(chan struct{})
	defer close(park)
	go func() { <-park }()
	var leaky Verdict
	leaky.AwaitGoroutines(baseline)
	if len(leaky.Violations) != 1 || !strings.Contains(leaky.Violations[0], "goroutine leak") {
		t.Fatalf("parked goroutine not reported: %v", leaky.Violations)
	}
}
