package serve

import (
	"encoding/json"
	"fmt"
	"os"

	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
)

// LoadStats is the measured outcome of driving one server configuration
// with a request mix — the per-configuration row of BENCH_serve.json.
type LoadStats struct {
	Label     string `json:"label"`
	Requests  int    `json:"requests"`
	Completed int    `json:"completed"`
	Shed      int    `json:"shed"`
	Failed    int    `json:"failed"`
	// WallSeconds is real elapsed time over the run; Throughput is
	// completed requests per wall second.
	WallSeconds float64     `json:"wall_seconds"`
	Throughput  float64     `json:"throughput_rps"`
	Latency     Percentiles `json:"latency"`
	// ShedRate is shed / submitted; CacheHitRate is the cache's served
	// fraction ((hits+shared)/lookups), 0 for a cache-disabled run.
	ShedRate     float64     `json:"shed_rate"`
	CacheHitRate float64     `json:"cache_hit_rate"`
	Cache        cache.Stats `json:"cache"`
	// Chain-level two-tier breakdown: every MSA chain of the run was
	// served by the memory tier, the disk tier, or a fresh search.
	// MemHitRate and DiskHitRate are each tier's fraction of chain
	// lookups.
	ChainMemHits  int64   `json:"chain_mem_hits,omitempty"`
	ChainDiskHits int64   `json:"chain_disk_hits,omitempty"`
	ChainFresh    int64   `json:"chain_fresh,omitempty"`
	MemHitRate    float64 `json:"mem_hit_rate,omitempty"`
	DiskHitRate   float64 `json:"disk_hit_rate,omitempty"`
	// Disk is the persistent tier's counter snapshot (nil without one).
	Disk *cachedisk.Stats `json:"disk,omitempty"`
	// Modeled virtual-time accounting for the same trace: the phase-split
	// makespan at the run's pool sizes, the serial (stock) makespan, and
	// their ratio.
	ModeledMakespan float64 `json:"modeled_makespan_seconds"`
	ModeledSerial   float64 `json:"modeled_serial_seconds"`
	ModeledSpeedup  float64 `json:"modeled_speedup"`
	// Routing gathers the run's full routing story — sheds, stage
	// retries, checkpoint restores and (in cluster mode) per-shard dispatch
	// counters — in one block, so no reader has to join scattered counters.
	Routing *RoutingBreakdown `json:"routing,omitempty"`
	// Batch is the cross-request GPU batching summary — dispatches, mean
	// batch size, overhead fraction, padding waste, compile-cache counters
	// (nil when batching is disabled).
	Batch *BatchReport `json:"batch,omitempty"`
	// Fairness is the per-tenant QoS outcome — admission accounting,
	// modeled per-tenant latency, decision/dispatch digests (nil without
	// Config.QoS).
	Fairness *FairnessReport `json:"fairness,omitempty"`
}

// RoutingBreakdown is the one-stop routing section of a load report: every
// way a request was steered somewhere other than the happy path, plus the
// per-shard dispatch table when a cluster scatter layer is attached.
type RoutingBreakdown struct {
	// Shed counts admission rejections; ShedQueueFull/ShedRateLimited/
	// ShedBrownout split them by resilience.ShedReason (rate-limited and
	// brownout only occur in QoS mode). ShedReroutes counts
	// cluster-router attempts that landed on another replica after a shed.
	Shed            int64 `json:"shed"`
	ShedQueueFull   int64 `json:"shed_queue_full,omitempty"`
	ShedRateLimited int64 `json:"shed_rate_limited,omitempty"`
	ShedBrownout    int64 `json:"shed_brownout,omitempty"`
	ShedReroutes    int64 `json:"shed_reroutes,omitempty"`
	// StageRetries counts MSA stage re-runs after transient faults;
	// ChainsRestored counts chains replayed from checkpoints instead of
	// re-searched; PartialMSA counts results served with breaker-skipped
	// databases.
	StageRetries   int64 `json:"stage_retries"`
	ChainsRestored int64 `json:"chains_restored"`
	PartialMSA     int64 `json:"partial_msa"`
	// ReplicaFailovers counts cluster-router retries on a different replica
	// after one died or failed mid-request; ShardFailovers counts scans
	// re-dispatched to a surviving owner after a shard-node kill.
	ReplicaFailovers int64 `json:"replica_failovers,omitempty"`
	ShardFailovers   int64 `json:"shard_failovers,omitempty"`
	// PerShard is the dispatch table of the scatter layer, one row per
	// shard node in shard order (nil outside cluster mode).
	PerShard []ShardCounters `json:"per_shard,omitempty"`
}

// ShardCounters is one shard node's row in the routing breakdown.
type ShardCounters struct {
	Shard      string `json:"shard"`
	Dispatches int64  `json:"dispatches"`
	Failovers  int64  `json:"failovers"`
	Killed     bool   `json:"killed,omitempty"`
}

// LoadReport is the full BENCH_serve.json document: the run parameters,
// the cache-enabled and cache-disabled passes, and the headline ratio.
type LoadReport struct {
	Mix         string `json:"mix"`
	Requests    int    `json:"requests"`
	Concurrency int    `json:"concurrency"`
	Threads     int    `json:"threads"`
	MSAWorkers  int    `json:"msa_workers"`
	GPUWorkers  int    `json:"gpu_workers"`
	QueueDepth  int    `json:"queue_depth"`
	CacheMB     int    `json:"cache_mb"`
	Seed        uint64 `json:"seed"`

	// CacheDir is the persistent tier's directory ("" without one).
	CacheDir string `json:"cache_dir,omitempty"`

	// Warm is the optional precompute pass that filled the disk tier
	// before measurement; WithCache the measured chain-keyed (two-tier
	// when a disk is attached) pass; NoCache the cache-disabled pass; and
	// Baseline the request-keyed memory-only pass that chains are only
	// shared within identical requests.
	Warm      *LoadStats `json:"warm,omitempty"`
	WithCache *LoadStats `json:"with_cache,omitempty"`
	NoCache   *LoadStats `json:"no_cache,omitempty"`
	Baseline  *LoadStats `json:"request_keyed_baseline,omitempty"`
	// QoS is the tenant-aware open-loop pass (afload -qos): its stats
	// carry the per-tenant fairness block.
	QoS *LoadStats `json:"qos,omitempty"`
	// ThroughputSpeedup is with-cache throughput over no-cache throughput
	// (>1 means the cache pays for itself). MakespanImprovement is the
	// request-keyed baseline's modeled makespan over the chain-keyed
	// pass's — the deployment-scale value of sharing chains across
	// complexes on an all-vs-all screening mix.
	ThroughputSpeedup   float64 `json:"throughput_speedup,omitempty"`
	MakespanImprovement float64 `json:"modeled_makespan_improvement,omitempty"`
}

// MergeSection folds one named section into the JSON object at path
// (BENCH_serve.json), keeping every other section, or creates the file
// holding just that section.
func MergeSection(path, name string, section any) error {
	doc := map[string]any{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("existing %s is not a JSON object: %w", path, err)
		}
	}
	doc[name] = section
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
