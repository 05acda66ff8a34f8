package memest

import (
	"fmt"

	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
)

// GPU-side estimation: the inference phase's device-memory footprint. The
// paper's Section III-B records exactly this failure mode — 6QNR exceeded
// the RTX 4080's 16 GB and had to fall back to CUDA unified memory. The
// estimator predicts it up front, the companion of the CPU-side Check.

// GPUVerdict classifies the projected device footprint.
type GPUVerdict int

const (
	// GPUFits: the prediction runs fully device-resident.
	GPUFits GPUVerdict = iota
	// GPUNeedsUnified: exceeds device memory; unified-memory offload
	// required (runs, but slower — the 6QNR-on-desktop case).
	GPUNeedsUnified
)

// String implements fmt.Stringer.
func (v GPUVerdict) String() string {
	switch v {
	case GPUFits:
		return "FITS"
	case GPUNeedsUnified:
		return "NEEDS-UNIFIED-MEMORY"
	default:
		return fmt.Sprintf("GPUVerdict(%d)", int(v))
	}
}

// GPUEstimate is the device-memory projection for one input on one GPU.
type GPUEstimate struct {
	Input      string
	GPU        string
	Tokens     int
	WeightGiB  float64
	ActGiB     float64
	TotalBytes int64
	Verdict    GPUVerdict
}

// Device footprint model, mirroring simgpu: fixed weights plus activation
// buffers scaling with the squared token count (pair representation).
const (
	gpuWeightBytes     = int64(2) << 30
	gpuActBytesPerPair = 16 * 128 * 4
)

// GPUCheck projects the inference footprint of the input on the machine's
// GPU.
func GPUCheck(in *inputs.Input, mach platform.Machine) GPUEstimate {
	n := int64(in.TotalResidues())
	act := n * n * gpuActBytesPerPair
	est := GPUEstimate{
		Input:      in.Name,
		GPU:        mach.GPU.Name,
		Tokens:     int(n),
		WeightGiB:  float64(gpuWeightBytes) / GiB,
		ActGiB:     float64(act) / GiB,
		TotalBytes: gpuWeightBytes + act,
	}
	if est.TotalBytes > mach.GPU.MemBytes {
		est.Verdict = GPUNeedsUnified
	}
	return est
}
