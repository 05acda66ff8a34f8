package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// miniAF3JSON is the -input fixture: AF3's input format, written by hand.
const miniAF3JSON = `{"name":"mini","modelSeeds":[1],"sequences":[{"protein":{"id":["A"],"sequence":"ACDEFGHIKLMNPQRSTVWY"}}]}`

func TestRunSample(t *testing.T) {
	if err := runMemest([]string{"-sample", "6QNR"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunMaxRNA(t *testing.T) {
	if err := runMemest([]string{"-max-rna"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunInputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "in.json")
	if err := os.WriteFile(path, []byte(miniAF3JSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runMemest([]string{"-input", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunMemestErrors(t *testing.T) {
	if err := runMemest(nil, io.Discard); err == nil {
		t.Error("missing flags accepted")
	}
	if err := runMemest([]string{"-sample", "nope"}, io.Discard); err == nil {
		t.Error("unknown sample accepted")
	}
	if err := runMemest([]string{"-input", "/does/not/exist.json"}, io.Discard); err == nil {
		t.Error("missing file accepted")
	}
}
