package serve

import (
	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
)

// LoadStats is the measured outcome of driving one server configuration
// with a request mix: one pass of afload or of a serving gate.
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
	// retries, checkpoint restores — in one block, so no reader has to join
	// scattered counters.
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
// way a request was steered somewhere other than the happy path.
type RoutingBreakdown struct {
	// Shed counts admission rejections; ShedQueueFull/ShedRateLimited/
	// ShedBrownout split them by resilience.ShedReason (rate-limited and
	// brownout only occur in QoS mode).
	Shed            int64 `json:"shed"`
	ShedQueueFull   int64 `json:"shed_queue_full,omitempty"`
	ShedRateLimited int64 `json:"shed_rate_limited,omitempty"`
	ShedBrownout    int64 `json:"shed_brownout,omitempty"`
	// StageRetries counts MSA stage re-runs after transient faults;
	// ChainsRestored counts chains replayed from checkpoints instead of
	// re-searched; PartialMSA counts results served with breaker-skipped
	// databases.
	StageRetries   int64 `json:"stage_retries"`
	ChainsRestored int64 `json:"chains_restored"`
	PartialMSA     int64 `json:"partial_msa"`
}
