// Package afsysbench is AFSysBench-Go: a full-system reproduction of
// "AlphaFold3 Workload Characterization: A Comprehensive Analysis of
// Bottlenecks and Performance Scaling" (IISWC 2025).
//
// The package re-exports the suite's public surface. The pipeline itself —
// a jackhmmer/nhmmer-class profile-HMM search engine, the Pairformer and
// diffusion inference modules, a mini XLA-style graph compiler, and
// cycle-accurate-in-shape models of the paper's two platforms (Intel Xeon
// + H100 server, AMD Ryzen + RTX 4080 desktop) — lives in internal
// subpackages; everything a downstream user needs is aliased here.
//
// Quickstart:
//
//	suite, err := afsysbench.NewSuite()
//	in, _ := afsysbench.SampleByName("2PV7")
//	res, err := suite.RunPipeline(in, afsysbench.Server(), afsysbench.PipelineOptions{Threads: 8})
//	fmt.Println(res.MSASeconds, res.Inference.Total())
//
// Every table and figure of the paper has a data producer on Suite
// (Figure3, Table6, ...) and a renderer in the report aliases below; the
// afsysbench command wraps them all.
package afsysbench

import (
	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/memest"
	"afsysbench/internal/platform"
	"afsysbench/internal/resilience"
	"afsysbench/internal/simgpu"
)

// Suite is a configured benchmark-suite instance; see NewSuite.
type Suite = core.Suite

// NewSuite builds the standard suite: deterministic synthetic reference
// databases covering the Table II samples, and the AF3-scale inference
// model.
func NewSuite() (*Suite, error) { return core.NewSuite() }

// Input is one biomolecular assembly in AF3 input terms.
type Input = inputs.Input

// Chain is one molecular chain of an Input.
type Chain = inputs.Chain

// Samples returns the five Table II benchmark inputs in paper order.
func Samples() []*Input { return inputs.Samples() }

// SampleByName returns a Table II sample ("2PV7", "7RCE", "1YY9", "promo",
// "6QNR").
func SampleByName(name string) (*Input, error) { return inputs.ByName(name) }

// RNASweep returns the Figure 2 inputs (RNA lengths 621–1335).
func RNASweep() []*Input { return inputs.RNASweep() }

// Machine is one evaluation platform (Table I).
type Machine = platform.Machine

// Server returns the Intel Xeon Gold 5416S + H100 platform.
func Server() Machine { return platform.Server() }

// ServerWithCXL returns the server with the 256 GiB CXL expander.
func ServerWithCXL() Machine { return platform.ServerWithCXL() }

// Desktop returns the AMD Ryzen 7900X + RTX 4080 platform.
func Desktop() Machine { return platform.Desktop() }

// DesktopUpgraded returns the desktop with the 128 GiB DRAM upgrade.
func DesktopUpgraded() Machine { return platform.DesktopUpgraded() }

// Platforms returns every defined machine.
func Platforms() []Machine { return platform.All() }

// PlatformByName looks a machine up by name.
func PlatformByName(name string) (Machine, error) { return platform.ByName(name) }

// PipelineOptions configure one end-to-end run.
type PipelineOptions = core.PipelineOptions

// PipelineResult is the outcome of one end-to-end run.
type PipelineResult = core.PipelineResult

// ErrProjectedOOM is returned when the Section VI estimator predicts the
// input cannot fit the machine.
type ErrProjectedOOM = core.ErrProjectedOOM

// Resilience layer: deadlines, fault injection, and the degradation ladder
// for RunPipelineCtx. See ParseFaults for the fault-spec grammar.
type (
	// StageBudget caps modeled per-stage time (PipelineOptions.Budget).
	StageBudget = resilience.StageBudget
	// Faults is a parsed fault-injection specification.
	Faults = resilience.Faults
	// ResilienceReport is a run's retry/degradation accounting
	// (PipelineResult.Resilience).
	ResilienceReport = resilience.Report
	// ResilienceEvent is one recorded retry or degradation action.
	ResilienceEvent = resilience.Event
	// ErrStageTimeout reports a stage that missed its budget or deadline.
	ErrStageTimeout = resilience.ErrStageTimeout
	// ErrDBUnavailable reports a database the retry policy could not reach.
	ErrDBUnavailable = resilience.ErrDBUnavailable
)

// ParseFaults parses the -faults flag grammar (transient:<db>[:count],
// permanent:<db>, stall:<seconds>, memspike:<gib>[:after]; "*" targets
// every database).
func ParseFaults(spec string) (Faults, error) { return resilience.ParseFaults(spec) }

// PhaseBreakdown is the Figure 8 inference decomposition.
type PhaseBreakdown = simgpu.PhaseBreakdown

// MemoryEstimate is the static pre-check result (Section VI).
type MemoryEstimate = memest.Estimate

// MemoryCheck projects the peak MSA-stage memory of an input on a machine
// at a thread count and classifies it (OK / NEEDS-EXPANSION / OOM).
func MemoryCheck(in *Input, mach Machine, threads int) MemoryEstimate {
	return memest.Check(in, mach, threads)
}

// MaxSafeRNALength returns the longest RNA chain the machine can process.
func MaxSafeRNALength(mach Machine) int { return memest.MaxSafeRNALength(mach) }

// Experiment row types, one per paper artifact.
type (
	// MemRow is one Figure 2 point.
	MemRow = core.MemRow
	// PhaseRow is one Figure 3 bar.
	PhaseRow = core.PhaseRow
	// ScalingRow is one Figure 4/5 point.
	ScalingRow = core.ScalingRow
	// InferenceRow is one Figure 6 point.
	InferenceRow = core.InferenceRow
	// ShareRow is one Figure 7 bar.
	ShareRow = core.ShareRow
	// BreakdownRow is one Figure 8 bar.
	BreakdownRow = core.BreakdownRow
	// LayerRow is one Figure 9 slice.
	LayerRow = core.LayerRow
	// Table3Cell is one Table III cell.
	Table3Cell = core.Table3Cell
	// Table4Row is one Table IV row.
	Table4Row = core.Table4Row
	// Table5Row is one Table V row.
	Table5Row = core.Table5Row
	// Table6Row is one Table VI row.
	Table6Row = core.Table6Row
)

// Figure2 produces the RNA memory sweep (platform-independent).
func Figure2() []MemRow { return core.Figure2() }

// SampleNames returns the Table II names in paper order.
func SampleNames() []string { return core.SampleNames() }

// TwoPlatforms returns the paper's Server and Desktop machines.
func TwoPlatforms() []Machine { return core.TwoPlatforms() }

// MachineFor applies the paper's operational substitution (the 6QNR DRAM
// upgrade) when a sample cannot fit the stock machine.
func MachineFor(in *Input, mach Machine) Machine { return core.MachineFor(in, mach) }

// Thread sweeps used by the paper.
var (
	// MSAThreadSweep covers Figures 3-5 (1, 2, 4, 6, 8).
	MSAThreadSweep = core.MSAThreadSweep
	// InferenceThreadSweep covers Figure 6 (1, 2, 4, 6).
	InferenceThreadSweep = core.InferenceThreadSweep
)
