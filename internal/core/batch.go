package core

import (
	"fmt"

	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
	"afsysbench/internal/vtime"
)

// Batch scheduling — the orchestration direction the paper's Related Work
// surveys (ParaFold-style CPU/GPU pipelining) combined with its own §VI
// persistent-model recommendation. Stock AF3 processes requests strictly
// sequentially in a fresh container: MSA (CPU), then inference (GPU, cold
// init + XLA compile), then the next request. A pipelined server overlaps
// request i+1's CPU-bound MSA with request i's GPU-bound inference and
// keeps the compiled model resident.

// BatchOptions configure a batch run.
type BatchOptions struct {
	// Threads is the per-request worker count, covering both the MSA scan
	// shards and the compute-engine pool (see PipelineOptions.Threads).
	Threads int
	// Pipelined overlaps MSA(i+1) with inference(i) (ParaFold-style
	// two-stage pipeline). Sequential otherwise.
	Pipelined bool
	// WarmModel keeps the model initialized between requests (§VI): only
	// the first request pays device init, and XLA compile is paid once per
	// distinct graph shape — a warm model still recompiles when the token
	// count changes between samples.
	WarmModel bool
}

// BatchItem is one request's schedule.
type BatchItem struct {
	Sample           string
	MSASeconds       float64
	InferenceSeconds float64
	// Start/Finish are the request's span on the batch timeline.
	Start, Finish float64
}

// BatchResult summarizes a batch run.
type BatchResult struct {
	Machine   string
	Pipelined bool
	WarmModel bool
	Items     []BatchItem
	// Makespan is the wall time to finish all requests.
	Makespan float64
	// CPUBusy/GPUBusy are the stages' total busy times (utilization =
	// busy/makespan).
	CPUBusy, GPUBusy float64
}

// DeploymentRow is one deployment strategy of the batch comparison.
type DeploymentRow struct {
	Deployment       string
	Requests         int
	Makespan         float64
	CPUBusy, GPUBusy float64
}

// CompareDeployments runs one mixed request queue on the server under each
// deployment strategy: stock AF3's sequential cold start, the persistent
// model, ParaFold-style pipelining, and both.
func (s *Suite) CompareDeployments() ([]DeploymentRow, error) {
	queue := []string{"2PV7", "1YY9", "7RCE", "promo", "2PV7", "1YY9", "7RCE", "2PV7"}
	strategies := []struct {
		label string
		opts  BatchOptions
	}{
		{"sequential-cold", BatchOptions{Threads: 6}},
		{"persistent-model", BatchOptions{Threads: 6, WarmModel: true}},
		{"pipelined", BatchOptions{Threads: 6, Pipelined: true}},
		{"pipelined+persistent", BatchOptions{Threads: 6, Pipelined: true, WarmModel: true}},
	}
	var rows []DeploymentRow
	for _, st := range strategies {
		res, err := s.RunBatch(queue, platform.Server(), st.opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DeploymentRow{st.label, len(res.Items), res.Makespan, res.CPUBusy, res.GPUBusy})
	}
	return rows, nil
}

// RunBatch schedules the named samples on one machine. Per-request phase
// times come from the usual pipeline models; the scheduler composes them
// sequentially or as a two-stage pipeline.
func (s *Suite) RunBatch(names []string, mach platform.Machine, opts BatchOptions) (*BatchResult, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	if opts.Threads <= 0 {
		opts.Threads = 8
	}
	res := &BatchResult{Machine: mach.Name, Pipelined: opts.Pipelined, WarmModel: opts.WarmModel}

	// Phase times per request. A warm model skips device init after the
	// first request, but XLA compile is keyed by graph shape, the token
	// count: a sample whose shape has not been compiled yet still pays the
	// compiler.
	compiled := make(map[int]bool)
	jobs := make([]vtime.Job, 0, len(names))
	for i, name := range names {
		in, err := inputs.ByName(name)
		if err != nil {
			return nil, err
		}
		m := MachineFor(in, mach)
		shape := in.TotalResidues()
		warm := opts.WarmModel && i > 0
		pr, err := s.RunPipeline(in, m, PipelineOptions{
			Threads:        opts.Threads,
			RunIndex:       i,
			WarmStart:      warm,
			RecompileShape: warm && !compiled[shape],
		})
		if err != nil {
			return nil, err
		}
		compiled[shape] = true
		jobs = append(jobs, vtime.Job{CPU: pr.MSASeconds, GPU: pr.Inference.Total()})
	}

	// Schedule on the modeled clock: one CPU lane, one GPU lane. Pipelined,
	// every request is released at zero and the GPU picks each one up as
	// soon as both its MSA is done and the device is free. Sequential is
	// the same schedule with each request released at its predecessor's
	// finish — nothing else runs during inference; the CPU stage of the
	// next request waits too. That finish is (start+msa)+inf, so the
	// release clock advances in two steps: t += msa+inf differs in the
	// last bit.
	if !opts.Pipelined {
		var t float64
		for i := range jobs {
			jobs[i].Release = t
			t += jobs[i].CPU
			t += jobs[i].GPU
		}
	}
	placed, _ := vtime.TwoStage(jobs, 1, 1)
	for i, p := range placed {
		res.Items = append(res.Items, BatchItem{
			Sample:           names[i],
			MSASeconds:       jobs[i].CPU,
			InferenceSeconds: jobs[i].GPU,
			Start:            p.CPUStart,
			Finish:           p.GPUEnd,
		})
		res.CPUBusy += jobs[i].CPU
		res.GPUBusy += jobs[i].GPU
		if p.GPUEnd > res.Makespan {
			res.Makespan = p.GPUEnd
		}
	}
	return res, nil
}
