package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/msa"
	"afsysbench/internal/platform"
	"afsysbench/internal/simhw"
)

func TestSweepOneSample(t *testing.T) {
	var buf bytes.Buffer
	if err := runCalib([]string{"-samples", "2PV7"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DB modeled total", "2PV7", "Server", "Desktop", "IPC=", "LLC=", "dTLB="} {
		if !strings.Contains(out, want) {
			t.Errorf("calibration output missing %q", want)
		}
	}
}

// TestSweepPrintsTheSuiteEngine pins the calibration matrix to the engine
// every figure and served request runs: the 2PV7 / Server / 1T cell is the
// suite's own MSA result replayed on the Server model, to the printed digit.
func TestSweepPrintsTheSuiteEngine(t *testing.T) {
	var buf bytes.Buffer
	if err := runCalib([]string{"-samples", "2PV7"}, &buf); err != nil {
		t.Fatal(err)
	}
	suite, err := core.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	in, _ := inputs.ByName("2PV7")
	res, err := suite.MSAResult(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	sec := simhw.Simulate(msa.BuildRunSpec(platform.Server(), res)).Seconds
	want := fmt.Sprintf("Server  :  1T=%6.1fs(x1.00)", sec)
	if !strings.Contains(buf.String(), want) {
		t.Errorf("calibration output lacks the suite's cell %q:\n%s", want, buf.String())
	}
}

func TestSweepUnknownSample(t *testing.T) {
	var buf bytes.Buffer
	if err := runCalib([]string{"-samples", "nope"}, &buf); err == nil {
		t.Error("unknown sample accepted")
	}
}
