package memest

import (
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
)

func TestGPUCheckPaperBoundaries(t *testing.T) {
	desk, srv := platform.Desktop(), platform.Server()
	yy9, _ := inputs.ByName("1YY9")
	qnr, _ := inputs.ByName("6QNR")

	// Paper III-B: 1YY9 fits the RTX 4080, 6QNR needs unified memory.
	if got := GPUCheck(yy9, desk); got.Verdict != GPUFits {
		t.Errorf("1YY9 on RTX 4080 = %v, want FITS", got.Verdict)
	}
	if got := GPUCheck(qnr, desk); got.Verdict != GPUNeedsUnified {
		t.Errorf("6QNR on RTX 4080 = %v, want NEEDS-UNIFIED-MEMORY", got.Verdict)
	}
	if got := GPUCheck(qnr, srv); got.Verdict != GPUFits {
		t.Errorf("6QNR on H100 = %v, want FITS", got.Verdict)
	}
}

func TestGPUCheckFields(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	est := GPUCheck(in, platform.Desktop())
	if est.Tokens != 484 || est.Input != "2PV7" {
		t.Errorf("identity fields wrong: %+v", est)
	}
	if est.TotalBytes <= 0 || est.ActGiB <= 0 || est.WeightGiB <= 0 {
		t.Errorf("sizes not positive: %+v", est)
	}
	if est.Verdict.String() != "FITS" || GPUNeedsUnified.String() != "NEEDS-UNIFIED-MEMORY" {
		t.Error("verdict names wrong")
	}
}
