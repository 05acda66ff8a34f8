package main

import (
	"bytes"
	"encoding/json"
	"os"
	"time"
)

// This file is the one place that names the benchmark: workloads, metrics,
// units, directions and regression bounds. BENCHMARK.json at the repository
// root is generated from it (-write-spec) and a test keeps the two equal.

// nominalSeconds is the run length the round counts below are sized for
// (BENCHMARK.json run_seconds). -seconds scales rounds proportionally, so
// a run is always a fixed request count, never a deadline: parent and
// change do identical work.
const nominalSeconds = 15

// An untraced run performs its whole set-up at least setupRepeats times,
// and keeps repeating a cheap one until setupBudget has been spent on it (at
// most setupRepeatsMax times); setup_s is the median. Two repeats are what
// the driver's time cap leaves a set-up that takes seconds, and such a one
// is steady; a 50 ms one needs twenty before one slow page-in or a cold
// first pass stops deciding it.
const (
	setupRepeats    = 2
	setupRepeatsMax = 25
	setupBudget     = 2 * time.Second
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// On is the set of workloads whose traced run writes the metric; the
	// others report 0 for it. A traced run fails if what its passes wrote
	// is not exactly its column of this table.
	On workloadSet `json:"-"`
}

// workloadSet is a set of workloads, one bit each in workloadSpecs order.
type workloadSet uint

const (
	onCold workloadSet = 1 << iota
	onSharded
	onHot
	onPPI
	onStorm
	onFigures

	onHTTP    = onCold | onHot | onPPI                 // driven over HTTP: client spans and the admission stamp exist
	onDaemon  = onHTTP | onStorm                       // one serve.Server per round, inspected after it drains
	onServing = onDaemon | onSharded                   // requests go through serve
	onSearch  = onCold | onSharded | onPPI | onFigures // first sightings: hmmer and msa searches run
	onCached  = onHot | onPPI | onStorm                // a memory tier of cached chains is in play
	onAll     = onServing | onFigures
)

func (s workloadSet) has(workload string) bool {
	for i, w := range workloadSpecs {
		if w.Name == workload {
			return s&(1<<i) != 0
		}
	}
	return false
}

var workloadSpecs = []workloadSpec{
	{"cold_msa", "HTTP closed loop, no cache: every request is a first sighting, so hmmer+msa+parallel own >90% of wall and the control plane ~0."},
	{"sharded_cold", "Same mix through cluster.Router over 2 replicas scattering to 8 shards: the same kernels as many small segments, where per-scan set-up costs show."},
	{"hot_cache", "Fully cached requests over HTTP, one daemon lifetime per round: hmmer idle; serve control plane, cache hit path, replay and HTTP do everything."},
	{"ppi_two_tier", "All-vs-all PPI screen on a 1 MiB memory tier over a fresh disk tier: evictions, spills, disk reads and chain decode; fat entries lose here."},
	{"tenant_storm", "Bursty storm tenant vs interactive victim, pre-submitted on modeled arrivals: the only workload on the QoS/WFQ admission path, with batching on."},
	{"paper_figures", "One pass of all twelve figure/table producers: the four simulators, memest and core's experiment matrix dominate; output is byte-identical."},
}

const (
	lower  = "lower"
	higher = "higher"
)

// End-to-end metrics: every one is reported by every workload with tracing
// off. A bound is a share of the parent's median (contract maximum 0.25)
// and one bound serves all six workloads, so each is about three times the
// widest interquartile spread any workload showed over ten seeds on the
// shared 2-core box (README, "Baseline"): what a 15-second run resolves
// there, not what one would wish. The exact checks — digests, goldens, the
// QoS replay — are what hold the modeled clock to the last bit.
var e2eSpecs = []e2eSpec{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"op_p90_ms", "ms", lower, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"alloc_mb_per_op", "MB", lower, 0.06},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"modeled_s_per_op", "paper-s", lower, 0.03},
	{"modeled_victim_p95_s", "paper-s", lower, 0.05},
	{"served_share", "ratio", higher, 0.13},
}

// Per-layer metrics: reported by the traced run (-trace 1). Layers are
// package names. The last column is the workloads that execute the layer
// and so write the metric; the driver wants every name from every workload,
// so the others report 0 (the detail line's "layers" says which were written).
var layerSpecs = []layerSpec{
	// hmmer: direct Search*Ctx over the workload's chain x database pairs.
	{"hmmer.protein_ns_per_cell", "ns", lower, onSearch},
	{"hmmer.nucleotide_ns_per_cell", "ns", lower, onSearch},
	{"hmmer.protein_swar_ns_per_cell", "ns", lower, onSearch},
	{"hmmer.allocs_per_scan", "count", lower, onSearch},
	{"hmmer.cells_dp", "count", lower, onSearch},
	{"hmmer.cells_pruned", "count", higher, onSearch},
	{"hmmer.pruned_ratio", "ratio", higher, onSearch},
	{"hmmer.candidates", "count", lower, onSearch},
	{"hmmer.records_scanned", "count", lower, onSearch},
	{"hmmer.hits", "count", higher, onSearch},
	{"hmmer.lanes_rejected", "count", higher, onSearch},
	// msa
	{"msa.run_ms_p50", "ms", lower, onSearch},
	{"msa.chain_ms_p50", "ms", lower, onSearch},
	{"msa.chain_ms_p90", "ms", lower, onSearch},
	{"msa.speedup_2t", "ratio", higher, onSearch},
	{"msa.chain_encode_us_p50", "us", lower, onAll},
	{"msa.chain_decode_us_p50", "us", lower, onAll},
	{"msa.chain_bytes_mean", "B", lower, onAll},
	{"msa.dbset_fingerprint_us", "us", lower, onAll},
	{"msa.build_runspec_ms_p50", "ms", lower, onAll},
	// core
	{"core.msa_phase_fresh_ms_p50", "ms", lower, onAll},
	{"core.msa_phase_hit_ms_p50", "ms", lower, onAll},
	{"core.msa_phase_hit_alloc_mb", "MB", lower, onAll},
	{"core.inference_phase_us_p50", "us", lower, onAll},
	{"core.compile_sim_cold_ms", "ms", lower, onAll},
	{"core.exp.fig2_s", "s", lower, onFigures},
	{"core.exp.fig3_s", "s", lower, onFigures},
	{"core.exp.fig4_s", "s", lower, onFigures},
	{"core.exp.fig5_s", "s", lower, onFigures},
	{"core.exp.fig6_s", "s", lower, onFigures},
	{"core.exp.fig7_s", "s", lower, onFigures},
	{"core.exp.fig8_s", "s", lower, onFigures},
	{"core.exp.fig9_s", "s", lower, onFigures},
	{"core.exp.tab3_s", "s", lower, onFigures},
	{"core.exp.tab4_s", "s", lower, onFigures},
	{"core.exp.tab5_s", "s", lower, onFigures},
	{"core.exp.tab6_s", "s", lower, onFigures},
	{"core.golden_drift_max_pct", "%", lower, onFigures},
	// serve: stage spans from the public PanicHook guard points, then
	// direct calls, then counts from the harness-supplied registry.
	{"serve.queue_wait_ms_p50", "ms", lower, onHTTP},
	{"serve.msa_stage_ms_p50", "ms", lower, onDaemon},
	{"serve.handoff_wait_ms_p50", "ms", lower, onDaemon},
	{"serve.inference_stage_ms_p50", "ms", lower, onHTTP},
	{"serve.wall_share", "ratio", higher, onHTTP},
	{"serve.submit_us_p50", "us", lower, onDaemon},
	{"serve.http_submit_ms_p50", "ms", lower, onHTTP},
	{"serve.http_status_ms_p50", "ms", lower, onHTTP},
	{"serve.wall_ms_p50", "ms", lower, onServing},
	{"serve.metrics_snapshot_ms", "ms", lower, onDaemon},
	{"serve.statuses_ms", "ms", lower, onDaemon},
	{"serve.retained_mb_per_job", "MB", lower, onDaemon},
	{"serve.modeled_schedule_ms", "ms", lower, onDaemon},
	{"serve.fairness_report_ms", "ms", lower, onStorm},
	{"serve.requests_admitted", "count", higher, onServing},
	{"serve.requests_shed", "count", lower, onServing},
	{"serve.requests_failed", "count", lower, onServing},
	{"serve.requests_brownout", "count", lower, onServing},
	{"serve.msa_stage_runs", "count", lower, onServing},
	{"serve.inference_stage_runs", "count", lower, onServing},
	{"serve.batches_dispatched", "count", lower, onStorm},
	{"serve.batch_mean_size", "count", higher, onStorm},
	{"serve.compile_cache_hit_ratio", "ratio", higher, onStorm},
	// cache
	{"cache.get_hit_ns", "ns", lower, onCached},
	{"cache.get_or_compute_hit_ns", "ns", lower, onCached},
	{"cache.add_evict_us", "us", lower, onCached},
	{"cache.hit_ratio", "ratio", higher, onCached},
	{"cache.shared", "count", higher, onCached},
	{"cache.evictions", "count", lower, onCached},
	// cachedisk
	{"cachedisk.put_ms_p50", "ms", lower, onPPI},
	{"cachedisk.get_ms_p50", "ms", lower, onPPI},
	{"cachedisk.open_ms", "ms", lower, onPPI},
	{"cachedisk.hits", "count", higher, onPPI},
	{"cachedisk.puts", "count", lower, onPPI},
	{"cachedisk.bytes", "B", lower, onPPI},
	{"cachedisk.retries", "count", lower, onPPI},
	// qos
	{"qos.admit_ns", "ns", lower, onStorm},
	{"qos.wfq_push_ns", "ns", lower, onStorm},
	{"qos.wfq_pop_ns", "ns", lower, onStorm},
	{"qos.shed_rate_limited", "count", lower, onStorm},
	{"qos.shed_brownout", "count", lower, onStorm},
	{"qos.shed_queue_full", "count", lower, onStorm},
	{"qos.degraded", "count", lower, onStorm},
	{"qos.digest_stable", "ratio", higher, onStorm},
	// batch
	{"batch.plan_us", "us", lower, onStorm},
	{"batch.pad_waste_pct", "%", lower, onStorm},
	// cluster
	{"cluster.scatter_ms_p50", "ms", lower, onSharded},
	{"cluster.scatter_overhead_pct", "%", lower, onSharded},
	{"cluster.router_overhead_us_p50", "us", lower, onSharded},
	{"cluster.scans", "count", lower, onSharded},
	{"cluster.dispatches", "count", lower, onSharded},
	{"cluster.failovers", "count", lower, onSharded},
	{"cluster.net_s", "paper-s", lower, onSharded},
	// simulators
	{"simhw.simulate_ms_p50", "ms", lower, onAll},
	{"simhw.host_ns_per_event", "ns", lower, onAll},
	{"simio.read_seq_us_p50", "us", lower, onAll},
	{"simgpu.inference_us_p50", "us", lower, onAll},
	{"memest.check_us", "us", lower, onAll},
	{"xla.build_graph_ms", "ms", lower, onAll},
	{"xla.compile_ms", "ms", lower, onAll},
	{"xla.graph_nodes", "count", lower, onAll},
	// kernel arms: no product path runs them end to end yet.
	{"tensor.matmul_gflops", "GFLOP/s", higher, onFigures},
	{"pairformer.block_ms", "ms", lower, onFigures},
	{"diffusion.denoise_step_ms", "ms", lower, onFigures},
	// client / runtime / trace
	{"client.polls_per_op", "count", lower, onHTTP},
	{"client.http_overhead_ms_p50", "ms", lower, onHTTP},
	{"client.op_p99_ms", "ms", lower, onAll},
	{"runtime.gc_count", "count", lower, onAll},
	{"runtime.gc_cpu_share", "ratio", lower, onAll},
	{"runtime.gc_pause_total_ms", "ms", lower, onAll},
	{"runtime.heap_inuse_peak_mb", "MB", lower, onAll},
	{"runtime.goroutines_end", "count", lower, onAll},
	{"trace.overhead_pct", "%", lower, onHot},
}

// benchmarkFile is BENCHMARK.json: exactly the keys the driver's contract
// lists, nothing else.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eSpec      `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

func benchmarkSpec() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: nominalSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   e2eSpecs,
		PerLayer:   layerSpecs,
	}
}

func writeSpec(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // the whys are prose: keep ">" readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchmarkSpec()); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readSpec(path string) (benchmarkFile, error) {
	var spec benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(b, &spec)
}
