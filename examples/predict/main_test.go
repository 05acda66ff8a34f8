package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun checks the bitwise-determinism invariant at the surface: two runs
// write byte-equal PDB files and print the same confidence.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	var pdbs [2][]byte
	for i := range pdbs {
		out := filepath.Join(dir, []string{"a.pdb", "b.pdb"}[i])
		var buf bytes.Buffer
		if err := run(&buf, out); err != nil {
			t.Fatal(err)
		}
		if want := "(160 atoms, mean confidence 87.8)\n"; !strings.HasSuffix(buf.String(), want) {
			t.Errorf("run %d output does not end in %q:\n%s", i, want, buf.String())
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		pdbs[i] = b
	}
	if len(pdbs[0]) == 0 || !bytes.Equal(pdbs[0], pdbs[1]) {
		t.Errorf("two runs wrote different PDB files (%d vs %d bytes)", len(pdbs[0]), len(pdbs[1]))
	}
}
