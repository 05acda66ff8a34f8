package main

import (
	"io"
	"testing"
)

func TestRunMSAProfile(t *testing.T) {
	if err := runProf([]string{"-sample", "2PV7", "-machine", "Server", "-threads", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompare(t *testing.T) {
	if err := runProf([]string{"-sample", "2PV7", "-machine", "Server", "-compare"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunTimeline(t *testing.T) {
	if err := runProf([]string{"-sample", "2PV7", "-machine", "Desktop", "-phase", "timeline"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunInferencePhase(t *testing.T) {
	if err := runProf([]string{"-sample", "2PV7", "-machine", "Server", "-phase", "inference"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := runProf([]string{"-sample", "nope"}, io.Discard); err == nil {
		t.Error("unknown sample accepted")
	}
	if err := runProf([]string{"-sample", "2PV7", "-machine", "Cray"}, io.Discard); err == nil {
		t.Error("unknown machine accepted")
	}
	if err := runProf([]string{"-sample", "2PV7", "-phase", "bogus"}, io.Discard); err == nil {
		t.Error("unknown phase accepted")
	}
	if err := runProf([]string{"-sample", "2PV7", "-metric", "bogus"}, io.Discard); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestRunHits(t *testing.T) {
	if err := runProf([]string{"-sample", "2PV7", "-phase", "hits"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunLayers(t *testing.T) {
	if err := runProf([]string{"-sample", "2PV7", "-machine", "Server", "-phase", "layers"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}
