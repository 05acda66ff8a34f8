package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// Verdict gathers the invariants a gate found broken. Report structs embed
// it, so their JSON carries a flat "violations" key.
type Verdict struct {
	// Violations lists every broken invariant; empty means the gate
	// passed.
	Violations []string `json:"violations,omitempty"`
}

// Failf records one broken invariant.
func (v *Verdict) Failf(format string, args ...any) {
	v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
}

// AwaitGoroutines waits (up to 5 s) for the goroutine count to return to
// baseline once a scenario's servers are stopped, and records a leak if it
// does not.
func (v *Verdict) AwaitGoroutines(baseline int) {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			v.Failf("goroutine leak: baseline %d, after drain %d", baseline, runtime.NumGoroutine())
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Finish ends a gate: it prints every violation, writes report (the struct
// embedding v, violations included) to jsonPath when one is given, and
// returns an error naming the reproduction line if anything broke —
// otherwise it prints the pass line.
func (v *Verdict) Finish(w io.Writer, gate string, report any, jsonPath, repro string) error {
	for _, msg := range v.Violations {
		fmt.Fprintf(w, "%s VIOLATION: %s\n", gate, msg)
	}
	if jsonPath != "" {
		if err := WriteJSON(w, jsonPath, report); err != nil {
			return err
		}
	}
	if n := len(v.Violations); n > 0 {
		return fmt.Errorf("%s FAILED (%d violations); reproduce with: %s", gate, n, repro)
	}
	fmt.Fprintf(w, "%s: all invariants held\n", gate)
	return nil
}

// WriteJSON writes v as indented JSON to path and says so on w.
func WriteJSON(w io.Writer, path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
