package scenario

import "afsysbench/internal/serve"

// Collect scrapes a finished server into the server-side half of stats:
// cache and chain-tier counters, the routing breakdown, disk-tier stats,
// modeled makespans at the server's pool sizes, and the batch and fairness
// reports. With QoS on, the fairness report replays the trace on
// cpuLanes/gpuLanes modeled lanes and its pooled modeled latency becomes
// the headline Latency block (an open loop has no client-side latency).
func Collect(s *serve.Server, stats *serve.LoadStats, cpuLanes, gpuLanes int) {
	cfg := s.Config()
	stats.Cache = cfg.Cache.Stats()
	stats.CacheHitRate = stats.Cache.HitRate()
	m := s.Metrics()
	stats.Routing = &serve.RoutingBreakdown{
		Shed:            m.Get("requests_shed"),
		ShedQueueFull:   m.Get("requests_shed_queue_full"),
		ShedRateLimited: m.Get("requests_shed_rate_limited"),
		ShedBrownout:    m.Get("requests_shed_brownout"),
		StageRetries:    m.Get("msa_stage_retries"),
		ChainsRestored:  m.Get("msa_chains_restored"),
		PartialMSA:      m.Get("requests_partial_msa"),
	}
	stats.ChainMemHits = m.Get("msa_chain_mem_hits")
	stats.ChainDiskHits = m.Get("msa_chain_disk_hits")
	stats.ChainFresh = m.Get("msa_chain_misses")
	if lookups := stats.ChainMemHits + stats.ChainDiskHits + stats.ChainFresh; lookups > 0 {
		stats.MemHitRate = float64(stats.ChainMemHits) / float64(lookups)
		stats.DiskHitRate = float64(stats.ChainDiskHits) / float64(lookups)
	}
	if cfg.DiskCache != nil {
		ds := cfg.DiskCache.Stats()
		stats.Disk = &ds
	}
	stats.ModeledMakespan = s.ModeledSchedule(cfg.MSAWorkers, cfg.GPUWorkers).Makespan
	stats.ModeledSerial = s.SerialMakespan()
	if stats.ModeledMakespan > 0 {
		stats.ModeledSpeedup = stats.ModeledSerial / stats.ModeledMakespan
	}
	stats.Batch = s.BatchReport()
	if stats.Fairness = s.FairnessReport(cpuLanes, gpuLanes); stats.Fairness != nil {
		stats.Latency = stats.Fairness.Overall
	}
}
