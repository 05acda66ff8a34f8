// Chaos mode: afload -chaos drives a seeded fault storm through a live
// in-process scheduler and asserts the serving layer's fault-tolerance
// invariants instead of measuring throughput. The storm combines injected
// worker panics (via serve.Config.PanicHook) at all three guard points,
// once-per-chain search faults that force checkpointed stage retries, and
// a permanently dark database that must trip its circuit breaker — all
// derived deterministically from -seed so a failure reproduces with the
// same flag line.
//
// Invariants checked after the storm:
//
//   - every admitted job reached a terminal state (nothing stuck between
//     the MSA and GPU pools);
//   - every failure carries a known error class, and at least one job
//     failed with class "panic";
//   - both worker pools are at full strength (no worker goroutine died
//     with a panicking job);
//   - the dark database's breaker tripped (breaker_to_open >= 1) and later
//     requests were annotated partial_msa;
//   - checkpointed retries happened (chains were replayed, not recomputed);
//   - after Stop, goroutines return to the pre-storm baseline (no leaks).
package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"afsysbench/internal/core"
	"afsysbench/internal/resilience"
	"afsysbench/internal/rng"
	"afsysbench/internal/scenario"
	"afsysbench/internal/serve"
)

// chaosFaultSpec is the storm's fault mix: every chain search faults once
// (forcing a checkpointed retry per chain), uniref_s fails transiently with
// a two-fault budget per job (exercising the in-stage retry ladder), and
// mgnify_s is permanently dark (exhausting retries, degrading results and
// feeding its breaker until it trips).
const chaosFaultSpec = "chainfault:*:1,transient:uniref_s:2,permanent:mgnify_s"

// chaosPanicPoints cycles panic injection across the three worker guard
// points; "msa" and "inference" fire at stage start, "handoff" between the
// MSA success and the GPU queue send — the historical job-loss window.
var chaosPanicPoints = []string{"msa", "handoff", "inference"}

// ChaosReport is the machine-readable outcome of one storm (written by
// -json in chaos mode).
type ChaosReport struct {
	Seed     uint64 `json:"seed"`
	Requests int    `json:"requests"`

	Done           int              `json:"done"`
	Failed         int              `json:"failed"`
	FailedByClass  map[string]int   `json:"failed_by_class,omitempty"`
	PartialMSA     int              `json:"partial_msa"`
	PanicsPlanned  int              `json:"panics_planned"`
	WorkerPanics   int64            `json:"worker_panics"`
	BreakerTrips   int64            `json:"breaker_trips"`
	StageRetries   int64            `json:"msa_stage_retries"`
	ChainsRestored int64            `json:"msa_chains_restored"`
	PoolHealth     serve.PoolHealth `json:"pool_health"`
	WallSeconds    float64          `json:"wall_seconds"`

	scenario.Verdict
}

// chaosPanicPlan deterministically picks the ordinals that panic and the
// guard point each fires at. Roughly one request in twelve panics, at least
// two overall, and ordinal 0 always panics at "msa" so even the smallest
// storm proves panic isolation.
func chaosPanicPlan(n int, seed uint64) map[int]string {
	src := rng.New(seed).Split(0xC4A05)
	count := n/12 + 2
	plan := map[int]string{0: "msa"}
	for i := 1; len(plan) < count && i < 64*count; i++ {
		ord := src.Split(uint64(i)).Intn(n)
		if _, dup := plan[ord]; dup {
			continue
		}
		plan[ord] = chaosPanicPoints[len(plan)%len(chaosPanicPoints)]
	}
	return plan
}

// runChaos executes the storm and returns an error (after printing the
// report and the reproduction line) if any invariant broke.
func runChaos(o options, out *os.File) error {
	trace, err := scenario.Trace(o.mix, 0, o.n, o.seed)
	if err != nil {
		return err
	}
	faults, err := resilience.ParseFaults(chaosFaultSpec)
	if err != nil {
		return err
	}
	suite, err := core.NewSuite()
	if err != nil {
		return err
	}
	plan := chaosPanicPlan(o.n, o.seed)

	// Warm the process-wide compute pools so the goroutine baseline below
	// measures only the chaos server's goroutines.
	warm := serve.NewWithSuite(suite, serve.Config{Threads: o.Threads, MSAWorkers: 2, GPUWorkers: 1})
	warm.Start()
	warmID, err := warm.Submit(serve.Request{Sample: trace[0]})
	if err != nil {
		return err
	}
	if _, err := (scenario.InProc{S: warm}).Wait(warmID); err != nil {
		return err
	}
	warm.Stop()
	baseline := runtime.NumGoroutine()

	// No cache: every request pays its search — maximum fault surface.
	f := o.Flags
	f.CacheMB = 0
	cfg, err := f.Config()
	if err != nil {
		return err
	}
	cfg.Faults = faults
	cfg.MSAAttempts = 4 // chainfault:*:1 needs one retry per distinct chain
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = 100 * time.Millisecond
	cfg.PanicHook = func(point string, ordinal int) {
		if plan[ordinal] == point {
			panic(fmt.Sprintf("chaos: injected %s panic (ordinal %d)", point, ordinal))
		}
	}
	s := serve.NewWithSuite(suite, cfg)
	s.Start()
	start := time.Now()
	scenario.ClosedLoop(scenario.InProc{S: s}, trace, o.concurrency, o.Threads)

	rep := ChaosReport{
		Seed:          o.seed,
		Requests:      o.n,
		PanicsPlanned: len(plan),
		FailedByClass: map[string]int{},
		WallSeconds:   time.Since(start).Seconds(),
	}
	statuses := s.Statuses()
	for _, st := range statuses {
		switch st.State {
		case "done":
			rep.Done++
			if st.PartialMSA {
				rep.PartialMSA++
			}
		case "failed":
			rep.Failed++
			rep.FailedByClass[st.ErrorClass]++
		default:
			rep.Failf("job %s stuck in state %q", st.ID, st.State)
		}
	}
	m := s.Metrics()
	rep.WorkerPanics = m.Get("worker_panics")
	rep.BreakerTrips = m.Get("breaker_to_open")
	rep.StageRetries = m.Get("msa_stage_retries")
	rep.ChainsRestored = m.Get("msa_chains_restored")
	rep.PoolHealth = s.PoolHealth()

	if len(statuses) != o.n {
		rep.Failf("admitted %d of %d requests (chaos storms must not shed; raise -queue or lower -concurrency)", len(statuses), o.n)
	}
	if !rep.PoolHealth.FullStrength() {
		rep.Failf("worker pool lost goroutines: %+v", rep.PoolHealth)
	}
	if rep.WorkerPanics < 1 {
		rep.Failf("no worker panic fired (panic plan missed)")
	}
	if rep.FailedByClass["panic"] < 1 {
		rep.Failf("no job failed with class \"panic\"")
	}
	for class := range rep.FailedByClass {
		switch class {
		case "panic", "timeout", "oom", "overloaded-queue-full",
			"overloaded-rate-limited", "overloaded-brownout", "fault", "error":
		default:
			rep.Failf("unknown error class %q", class)
		}
	}
	if rep.BreakerTrips < 1 {
		rep.Failf("dark database never tripped its breaker")
	}
	if rep.ChainsRestored < 1 {
		rep.Failf("no chain was replayed from a checkpoint")
	}

	s.Stop()
	rep.AwaitGoroutines(baseline)

	printChaos(out, rep)
	return rep.Finish(out, "chaos", rep, o.jsonPath,
		fmt.Sprintf("afload -chaos -seed %d -n %d -concurrency %d -mix %s", o.seed, o.n, o.concurrency, o.mix))
}

func printChaos(w *os.File, rep ChaosReport) {
	fmt.Fprintf(w, "chaos seed %d: %d req in %.1fs | %d done (%d partial_msa), %d failed | %d/%d planned panics fired | breaker trips %d, stage retries %d, chains restored %d\n",
		rep.Seed, rep.Requests, rep.WallSeconds, rep.Done, rep.PartialMSA, rep.Failed,
		rep.WorkerPanics, rep.PanicsPlanned, rep.BreakerTrips, rep.StageRetries, rep.ChainsRestored)
	if len(rep.FailedByClass) > 0 {
		classes := make([]string, 0, len(rep.FailedByClass))
		for c := range rep.FailedByClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Fprintf(w, "chaos failures by class:")
		for _, c := range classes {
			fmt.Fprintf(w, " %s=%d", c, rep.FailedByClass[c])
		}
		fmt.Fprintln(w)
	}
}
