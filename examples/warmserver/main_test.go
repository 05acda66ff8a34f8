package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun pins the three figures EXPERIMENTS.md quotes from this program.
func TestRun(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cold per-request deployment:    1266s total (105.5s/request)\n",
		"persistent model server:         461s total (38.4s/request)\n",
		"throughput improvement:      2.75x\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, buf.String())
		}
	}
}
