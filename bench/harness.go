package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
	"afsysbench/internal/rng"
	"afsysbench/internal/serve"
	"afsysbench/internal/stats"
)

// Load shape shared by every serving workload: sized for nproc = 2 on the
// shared box — never more clients than cores.
const (
	clients    = 2
	msaWorkers = 2
	gpuWorkers = 1
	threads    = 1
)

// workload is one named benchmark scenario. setup builds everything that
// precedes the first timed round (and is itself timed as setup_s); round
// runs one round, calling run.window around the timed part; traced runs
// the armed round plus the direct layer passes; close releases what the
// last setup built.
type workload interface {
	setup(r *run) error
	round(r *run, i int) error
	traced(r *run) error
	close()
}

// run is one invocation's state: its inputs (seed, size) and everything
// the rounds accumulate.
type run struct {
	seed   uint64
	rounds int
	smoke  bool
	tr     *tracer // nil unless this is the traced run

	setups    []float64 // seconds per set-up repeat
	walls     []float64 // seconds per measured round
	roundOps  []int
	roundCPU  []float64 // process CPU ms per measured round
	roundMB   []float64 // MB allocated per measured round
	lat       []float64 // client-observed ms, pooled over measured rounds
	modeled   []float64 // modeled seconds charged per completed op
	attempted int
	failed    int
	failures  []string
	counts    map[string]int
	// victimP95 and served collect one value per round; the reported
	// metric is their median.
	victimP95 []float64
	served    []float64
	layer     map[string]float64

	mu sync.Mutex // guards failed/failures from client goroutines
}

// scale turns a workload's nominal round count into this run's: rounds
// scale with -seconds, never mixes, client count or seed.
func scale(nominal, seconds int, smoke bool) int {
	if smoke {
		return 1
	}
	n := int(math.Round(float64(nominal) * float64(seconds) / nominalSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// resetMeasurements forgets the warm-up round.
func (r *run) resetMeasurements() {
	r.walls, r.roundOps, r.lat, r.modeled = nil, nil, nil, nil
	r.victimP95, r.served = nil, nil
	r.roundCPU, r.roundMB, r.attempted = nil, nil, 0
	r.counts = make(map[string]int)
}

// rusage reads this process's resource use; the zero value on failure
// reads as no CPU and no memory, which no metric mistakes for a result.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// window times one round's measured part: wall, process CPU and bytes
// allocated, with body returning the ops it completed.
func (r *run) window(attempted int, body func() int) {
	var before, after runtime.MemStats
	var watch *runtimeWatch
	if r.tr != nil {
		watch = watchRuntime()
	}
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	ops := body()
	wall := time.Since(t0)
	r.roundCPU = append(r.roundCPU, ms(cpuTime()-cpu0))
	runtime.ReadMemStats(&after)
	if watch != nil {
		watch.finish(r, &before, &after)
	}
	r.roundMB = append(r.roundMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	r.walls = append(r.walls, wall.Seconds())
	r.roundOps = append(r.roundOps, ops)
	r.attempted += attempted
}

// execute is the whole life of one run: repeated set-up, warm-up, then
// either the measured rounds or the traced round.
func execute(w workload, r *run) error {
	defer w.close()
	var spent time.Duration
	for i := 0; i < setupRepeats || (spent < setupBudget && i < setupRepeatsMax); i++ {
		w.close()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		r.setups = append(r.setups, d.Seconds())
		if r.smoke || r.tr != nil {
			break // setup_s is an end-to-end metric: only an untraced run reports it
		}
	}
	tr := r.tr
	r.tr = nil // warm-up is never traced
	if err := w.round(r, -1); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	r.resetMeasurements()
	r.tr = tr
	if r.tr != nil {
		return w.traced(r)
	}
	for i := 0; i < r.rounds; i++ {
		if err := w.round(r, i); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
	}
	return nil
}

// endToEnd derives the ten end-to-end metrics from the measured rounds.
// Rates and per-op costs are medians over rounds, so one round that a
// noisy neighbour hit does not decide them; latencies are pooled.
func (r *run) endToEnd() map[string]float64 {
	ops := 0
	var perSec, cpuPerOp, mbPerOp []float64
	for i, w := range r.walls {
		n := r.roundOps[i]
		ops += n
		if n == 0 {
			continue // a round that completed nothing has already failed the run
		}
		perSec = append(perSec, float64(n)/w)
		cpuPerOp = append(cpuPerOp, r.roundCPU[i]/float64(n))
		mbPerOp = append(mbPerOp, r.roundMB[i]/float64(n))
	}
	r.counts["latency_samples"] = len(r.lat)
	// The highest percentile this many samples support, in per mille (0:
	// not even the median); op_p90_ms is backed by its rule at 900 and up.
	if p, ok := supportedPercentile(len(r.lat)); ok {
		r.counts["supported_permille"] = int(p * 10)
	}
	r.counts["ops"] = ops
	r.counts["rounds"] = len(r.walls)
	return map[string]float64{
		"setup_s":              stats.Median(r.setups),
		"ops_per_s":            stats.Median(perSec),
		"op_p50_ms":            stats.Percentile(r.lat, 50),
		"op_p90_ms":            stats.Percentile(r.lat, 90),
		"cpu_ms_per_op":        stats.Median(cpuPerOp),
		"alloc_mb_per_op":      stats.Median(mbPerOp),
		"peak_rss_mb":          peakRSSMB(),
		"modeled_s_per_op":     stats.Mean(r.modeled),
		"modeled_victim_p95_s": stats.Median(r.victimP95),
		"served_share":         stats.Median(r.served),
	}
}

// closedLoop runs do(client, i) for every i in [0, n) from the harness's
// two clients: each takes the next index only after its previous call has
// returned.
func closedLoop(n int, do func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// outcome is one finished request as the verifier sees it, whichever way
// the workload sent it.
type outcome struct {
	sample    string
	err       error // transport or submit error; status is empty then
	status    serve.JobStatus
	result    *core.PipelineResult
	latencyMs float64
}

// settle verifies a round's requests and folds the good ones into the run:
// latency, modeled seconds charged, and the round's served share of what
// was offered. want names the digest a done request must have. It returns
// the round's modeled seconds per completed op. It runs after the timed
// window.
func (r *run) settle(outs []outcome, offered int, want func(st serve.JobStatus, got string) string) []float64 {
	var roundModeled []float64
	for i := range outs {
		o := &outs[i]
		st := o.status
		switch {
		case o.err != nil:
			r.fail("%s: %v", o.sample, o.err)
			continue
		case st.State != "done":
			r.fail("%s %s: %s (%s)", st.ID, st.State, st.Error, st.ErrorClass)
			continue
		case o.result == nil:
			r.fail("%s: done but no result", st.ID)
			continue
		}
		got := resultDigest(o.result)
		if ref := want(st, got); got != ref {
			r.fail("%s: digest %s, reference %s", st.ID, got, ref)
			continue
		}
		r.lat = append(r.lat, o.latencyMs)
		roundModeled = append(roundModeled, st.MSASeconds+st.ChargedInferenceSeconds)
	}
	r.modeled = append(r.modeled, roundModeled...)
	r.served = append(r.served, float64(len(roundModeled))/float64(offered))
	return roundModeled
}

// settleClosedLoop is settle for the workloads with one tenant and no
// arrival series: the reference digest is the sample's, and the "victim" is
// every request, so modeled_victim_p95_s is the 95th percentile of the
// modeled seconds charged per op.
func (r *run) settleClosedLoop(outs []outcome, refs map[string]reference) {
	modeled := r.settle(outs, len(outs), func(st serve.JobStatus, _ string) string { return refs[st.Sample].digest })
	r.victimP95 = append(r.victimP95, stats.Percentile(modeled, 95))
}

// shuffled returns xs in an order drawn from (seed, lane): every trace
// shuffle in the harness comes from here, so -seed reshapes all of them.
func shuffled(xs []string, seed, lane uint64) []string {
	out := append([]string(nil), xs...)
	src := rng.New(seed).Split(lane)
	for i := len(out) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// serverMachine is the platform every serving workload models.
func serverMachine() platform.Machine { return platform.Server() }

// resultDigest is the harness's own fingerprint of a completed request:
// the per-chain hit lists' shape and the modeled seconds. No cache tier,
// shard count, batch or QoS path may change it.
func resultDigest(res *core.PipelineResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%x|%x|%x|%x|%x", res.Sample,
		math.Float64bits(res.MSASeconds), math.Float64bits(res.MSACPUSeconds), math.Float64bits(res.MSADiskSeconds),
		math.Float64bits(res.Inference.ComputeSeconds), math.Float64bits(res.Inference.Total()))
	if d := res.MSAData; d != nil {
		fmt.Fprintf(h, "|%d|%d|%d", d.Features.Bytes(), d.TotalHitResidues, d.SerialInstructions)
		for _, c := range d.PerChain {
			fmt.Fprintf(h, "|%s:%d:%d:%d:%d:%d:%d:%d", c.ChainID, c.Hits, c.Candidates, c.Scanned, c.CellsDP, c.CellsPruned, c.Rows, c.HitResidues)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// reference is what set-up learns about one distinct sample by running the
// pipeline directly, the way the server will: its digest and inputs.
type reference struct {
	in     *inputs.Input
	digest string
}

// pipelineOpts mirrors serve's per-request options (canonical run index,
// warm model, no experiment memo) so a direct run is the oracle for a
// served one.
func pipelineOpts() core.PipelineOptions {
	return core.PipelineOptions{Threads: threads, RunIndex: 0, WarmStart: true, FreshMSA: true}
}

// references computes the digest of every distinct sample on both cores.
func references(suite *core.Suite, names []string) (map[string]reference, error) {
	refs := make(map[string]reference, len(names))
	var mu sync.Mutex
	var firstErr error
	closedLoop(len(names), func(_, i int) {
		in, err := inputs.ByName(names[i])
		var res *core.PipelineResult
		if err == nil {
			res, err = suite.RunPipeline(in, core.MachineFor(in, serverMachine()), pipelineOpts())
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			refs[names[i]] = reference{in: in, digest: resultDigest(res)}
		case firstErr == nil:
			firstErr = fmt.Errorf("reference %s: %w", names[i], err)
		}
	})
	return refs, firstErr
}

// distinct returns the distinct names of a trace in first-seen order.
func distinct(trace []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range trace {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
