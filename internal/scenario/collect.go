package scenario

import (
	"afsysbench/internal/core"
	"afsysbench/internal/qos"
	"afsysbench/internal/serve"
)

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
		ChainRetries:    m.Get("msa_chain_retries"),
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

// ClosedPass is one in-process server lifetime under closed-loop load: a
// server wired from cfg, driven through the trace by concurrency clients at
// cfg.Threads, and scraped.
// spill pushes the surviving memory tier to disk before the server stops,
// so a warm-up pass can precompute the disk tier for the next one.
func ClosedPass(suite *core.Suite, cfg serve.Config, trace []string, concurrency int, label string, spill bool) serve.LoadStats {
	s := serve.NewWithSuite(suite, cfg)
	s.Start()
	stats := ClosedLoop(InProc{S: s}, trace, concurrency, cfg.Threads)
	if spill {
		s.SpillCache()
	}
	s.Stop()
	stats.Label = label
	Collect(s, &stats, 0, 0)
	return stats
}

// QoS passes replay latency on these fixed modeled lane counts — inputs to
// the model, never the live pool sizes, so a pass's numbers are identical
// at any pool size.
const (
	qosModeledCPU = 4
	qosModeledGPU = 2
)

// QoSPass is one open-loop server lifetime: a scheduler wired from cfg under
// a controller built from qcfg and the tenants' quotas, fed the tenants'
// merged event trace (a pure function of seed) before Start, drained, and
// scraped with the fairness block attached.
func QoSPass(suite *core.Suite, cfg serve.Config, tenants []Tenant, seed uint64, qcfg qos.Config, label string) (serve.LoadStats, error) {
	events, err := Events(tenants, seed)
	if err != nil {
		return serve.LoadStats{}, err
	}
	qcfg.Tenants = Quotas(tenants)
	cfg.QoS = qos.NewController(qcfg)
	s := serve.NewWithSuite(suite, cfg)
	stats, err := OpenLoop(s, events, cfg.Threads)
	if err != nil {
		return stats, err
	}
	stats.Label = label
	Collect(s, &stats, qosModeledCPU, qosModeledGPU)
	return stats, nil
}
