// Package simgpu models the GPU side of AlphaFold3 inference on the two
// platforms: a roofline timing model per layer class (compute vs memory
// bound, plus kernel-launch overhead dispatched by a single host thread —
// the reason the paper's Figure 6 shows no benefit from multi-threading),
// the device initialization / XLA compilation / finalization phases of
// Figure 8, and the memory-footprint model that forces 6QNR into unified
// memory on the 16 GB RTX 4080.
package simgpu

import (
	"fmt"

	"afsysbench/internal/diffusion"
	"afsysbench/internal/pairformer"
	"afsysbench/internal/platform"
)

// Model bundles the network configuration of one AF3 inference.
type Model struct {
	PF pairformer.Config
	DF diffusion.Config
	// Recycles is the trunk recycling count: the Pairformer stack re-runs
	// this many times per prediction (AF3 default 10).
	Recycles int
}

// DefaultModel returns AF3-scale configuration.
func DefaultModel() Model {
	return Model{
		PF:       pairformer.DefaultConfig(),
		DF:       diffusion.DefaultConfig(),
		Recycles: 10,
	}
}

// Validate checks the model.
func (m Model) Validate() error {
	if err := m.PF.Validate(); err != nil {
		return err
	}
	if err := m.DF.Validate(); err != nil {
		return err
	}
	if m.Recycles <= 0 {
		return fmt.Errorf("simgpu: Recycles must be positive, got %d", m.Recycles)
	}
	return nil
}

// Memory footprint model: weights plus activation buffers that scale with
// the pair representation. Calibrated against the paper's Section III-B
// observations: 1YY9 (N=881) fits on the 16 GB RTX 4080, 6QNR (N=1395)
// does not and needs unified memory.
const (
	weightBytes        = 2 << 30
	actBytesPerPairElt = 16 * 128 * 4 // ~16 live f32 buffers of width 128
)

// MemoryFootprintBytes returns the device memory needed at n tokens.
func (m Model) MemoryFootprintBytes(n int) int64 {
	return weightBytes + int64(n)*int64(n)*actBytesPerPairElt
}

// BatchedFootprintBytes returns the device memory needed by a batched
// dispatch of batch members padded to n tokens: one weight set plus one
// activation set per member.
func (m Model) BatchedFootprintBytes(n, batch int) int64 {
	return weightBytes + int64(batch)*int64(n)*int64(n)*actBytesPerPairElt
}

// MaxBatch returns the largest batch size whose activation sets fit in
// device memory alongside the weights — the batch-size cap that guarantees
// a batch never spills to unified memory when its members individually
// fit. Always at least 1: a single member that already spills runs alone
// (and pays the spill penalty it would have paid unbatched).
func (m Model) MaxBatch(mach platform.Machine, n int) int {
	act := int64(n) * int64(n) * actBytesPerPairElt
	if act <= 0 {
		return 1
	}
	b := (mach.GPU.MemBytes - weightBytes) / act
	if b < 1 {
		return 1
	}
	return int(b)
}

// Per-layer-class achieved efficiency: fraction of peak tensor throughput
// and of peak memory bandwidth these kernel shapes sustain. AF3's shapes
// are narrow (128-wide), so compute efficiency is low; the triangle and
// global attention classes are additionally memory-bound (materialized
// logits, poor locality — paper Sections II-C, V-C).
type classEff struct{ compute, mem float64 }

func effFor(module, layer string) classEff {
	switch module + "/" + layer {
	case "Pairformer/" + pairformer.TriangleAttention.String():
		return classEff{0.12, 0.40}
	case "Pairformer/" + pairformer.TriangleMult.String():
		return classEff{0.13, 0.40}
	case "Pairformer/" + pairformer.PairTransition.String():
		return classEff{0.12, 0.45}
	case "Pairformer/" + pairformer.SingleUpdate.String():
		return classEff{0.05, 0.35}
	case "Diffusion/" + diffusion.GlobalAttention.String():
		// Tiny token counts leave the tensor cores almost idle, and the
		// paper singles this layer out for poor locality (II-C).
		return classEff{0.016, 0.25}
	case "Diffusion/" + diffusion.LocalAttnEncoder.String(),
		"Diffusion/" + diffusion.LocalAttnDecoder.String():
		// Bound by the uncoalesced window gathers, not arithmetic.
		return classEff{0.09, 0.31}
	default:
		return classEff{0.08, 0.40}
	}
}

// Devices returns the machine's modeled accelerator count, at least 1.
// The serving scheduler's inference pool is sized to it: one in-flight
// prediction per device, matching AF3's one-model-per-GPU execution (no
// intra-request multi-GPU parallelism in the paper's deployments).
func Devices(mach platform.Machine) int {
	if mach.GPU.Devices < 1 {
		return 1
	}
	return mach.GPU.Devices
}

// baseLaunchSeconds is the per-kernel dispatch cost when driven by a 5.6
// GHz host core; slower hosts dispatch proportionally slower (single host
// thread, paper Section V-B3a).
const baseLaunchSeconds = 6e-6

// LayerTime is one row of the Figure 9 / Table VI breakdown.
type LayerTime struct {
	Module  string
	Layer   string
	Seconds float64
	Flops   float64
	Bytes   float64
	Kernels float64
}

// LayerTimes prices every layer class of a full prediction at n tokens on
// the machine. spill applies the unified-memory penalty (6QNR on the 4080).
func (m Model) LayerTimes(mach platform.Machine, n int, spill bool) []LayerTime {
	return m.layerTimes(mach, n, spill, 1)
}

// layerTimes is LayerTimes with a batch factor: a batched dispatch moves
// batch× the flops and bytes through the roofline, but each kernel is
// launched once per dispatch — the single host dispatch thread issues one
// (batched) grid per layer, which is exactly how batching amortizes the
// Figure 8 launch overhead. batch == 1 is bitwise-identical to the
// unbatched path (multiplying by 1.0 is exact in IEEE arithmetic).
func (m Model) layerTimes(mach platform.Machine, n int, spill bool, batch int) []LayerTime {
	gpu := mach.GPU
	launch := baseLaunchSeconds * (5.6 / mach.CPU.MaxClockGHz)
	spillFactor := 1.0
	if spill {
		spillFactor = gpu.UnifiedMemPenalty
	}
	bf := float64(batch)
	var out []LayerTime
	price := func(module, layer string, flops, bytes, kernels float64) {
		flops *= bf
		bytes *= bf
		eff := effFor(module, layer)
		compute := flops / (gpu.TensorTFlops * 1e12 * eff.compute)
		memory := bytes / (gpu.MemBandwidthGBs * 1e9 * eff.mem)
		secs := compute
		if memory > secs {
			secs = memory
		}
		secs = secs*spillFactor + kernels*launch
		out = append(out, LayerTime{
			Module: module, Layer: layer,
			Seconds: secs, Flops: flops, Bytes: bytes, Kernels: kernels,
		})
	}
	rec := float64(m.Recycles)
	for _, k := range pairformer.Kinds() {
		price("Pairformer", k.String(),
			m.PF.LayerFlops(k, n)*rec,
			m.PF.LayerBytes(k, n)*rec,
			float64(m.PF.Kernels(k)*m.PF.Blocks)*rec)
	}
	for _, k := range diffusion.Kinds() {
		price("Diffusion", k.String(),
			m.DF.LayerFlops(k, n),
			m.DF.LayerBytes(k, n),
			float64(m.DF.Kernels(k)*m.DF.Evaluations()))
	}
	return out
}

// PhaseBreakdown is the Figure 8 decomposition of one inference run.
type PhaseBreakdown struct {
	InitSeconds     float64 // GPU/device/runtime initialization
	CompileSeconds  float64 // XLA compilation (host)
	ComputeSeconds  float64 // GPU kernels
	FinalizeSeconds float64 // host-side output assembly, teardown
	Spilled         bool    // unified-memory fallback engaged
	FootprintBytes  int64
}

// Total returns the end-to-end inference seconds.
func (p PhaseBreakdown) Total() float64 {
	return p.InitSeconds + p.CompileSeconds + p.ComputeSeconds + p.FinalizeSeconds
}

// InferenceOptions tune one run.
type InferenceOptions struct {
	// Threads is the CPU thread setting; inference gains nothing from it
	// (single dispatch thread) and loses slightly to host contention.
	Threads int
	// WarmStart skips device init and XLA compilation (persistent model
	// state, the Section VI optimization).
	WarmStart bool
	// CompileSeconds is the host compile time computed by the CPU model
	// for this platform (see xla.Compile + core.CompileSim). Zero charges
	// no compile time — the caller holds a compiled executable for this
	// shape (e.g. the serving tier's compiled-graph cache hit). Production
	// paths always thread the host-profile value through; there is no
	// clock-ratio fallback.
	CompileSeconds float64
	// Recompile charges CompileSeconds on a warm start: the model is
	// resident (no device init), but this shape bucket has not been
	// compiled before, so the graph build + XLA compile still runs.
	// Ignored on cold starts, which always compile.
	Recompile bool
}

// hostContention is the per-extra-thread slowdown of dispatch-sensitive
// phases (Figure 6's mild degradation under multi-threading).
const hostContention = 0.015

// Inference prices a full run of the model at n tokens on the machine.
// It is exactly BatchedInference with a batch of one.
func Inference(mach platform.Machine, m Model, n int, opts InferenceOptions) (PhaseBreakdown, error) {
	return BatchedInference(mach, m, n, 1, opts)
}

// BatchedInference prices one batched dispatch of batch members, each
// padded to n tokens, on the machine. The fixed Figure 8 costs are paid
// once per dispatch — device init (cold), XLA compile (cold, or warm with
// Recompile), per-kernel launch (single host dispatch thread issues one
// batched grid per layer), and finalize — while roofline compute scales
// with the batch. The footprint is one weight set plus batch activation
// sets; a dispatch kept within Model.MaxBatch never spills when its
// members individually fit. A batch of 1 is bitwise-identical to the
// unbatched model, so batching changes attribution, never results.
func BatchedInference(mach platform.Machine, m Model, n, batch int, opts InferenceOptions) (PhaseBreakdown, error) {
	if err := m.Validate(); err != nil {
		return PhaseBreakdown{}, err
	}
	if n <= 0 {
		return PhaseBreakdown{}, fmt.Errorf("simgpu: sequence length must be positive, got %d", n)
	}
	if batch < 1 {
		return PhaseBreakdown{}, fmt.Errorf("simgpu: batch size must be positive, got %d", batch)
	}
	threads := opts.Threads
	if threads < 1 {
		threads = 1
	}
	var p PhaseBreakdown
	p.FootprintBytes = m.BatchedFootprintBytes(n, batch)
	p.Spilled = p.FootprintBytes > mach.GPU.MemBytes

	contention := 1 + hostContention*float64(threads-1)

	if !opts.WarmStart {
		// Device init: driver/context plus weight upload over PCIe 4.0
		// (~20 GB/s effective) plus allocator pool warm-up.
		p.InitSeconds = mach.GPU.InitSeconds + float64(weightBytes)/20e9
		p.CompileSeconds = opts.CompileSeconds
		p.InitSeconds *= contention
		p.CompileSeconds *= contention
	} else if opts.Recompile {
		p.CompileSeconds = opts.CompileSeconds * contention
	}

	for _, l := range m.layerTimes(mach, n, p.Spilled, batch) {
		p.ComputeSeconds += l.Seconds
	}
	p.ComputeSeconds *= contention

	p.FinalizeSeconds = 0.3*mach.GPU.InitSeconds + 2.0
	return p, nil
}
