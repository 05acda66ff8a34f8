package cluster

import (
	"afsysbench/internal/core"
	"afsysbench/internal/vtime"
)

// RequestPoint is the per-request input to the scaling model, derived
// from a measured single-node pipeline result: the modeled MSA and
// inference times and the serial fraction of the MSA work (profile
// rebuilds, hit merging, feature assembly — the part sharding cannot
// touch, the Amdahl term).
type RequestPoint struct {
	Sample           string  `json:"sample"`
	MSASeconds       float64 `json:"msa_seconds"`
	InferenceSeconds float64 `json:"inference_seconds"`
	SerialFraction   float64 `json:"serial_fraction"`
}

// PointFromResult extracts a RequestPoint from a completed pipeline run.
func PointFromResult(res *core.PipelineResult) RequestPoint {
	p := RequestPoint{
		Sample:           res.Sample,
		MSASeconds:       res.MSASeconds,
		InferenceSeconds: res.Inference.Total(),
	}
	if d := res.MSAData; d != nil {
		var parallel uint64
		for _, w := range d.Workers {
			parallel += w.Totals().Instructions
		}
		if total := float64(parallel + d.SerialInstructions); total > 0 {
			p.SerialFraction = float64(d.SerialInstructions) / total
		}
	}
	return p
}

// NetProfile is the measured scatter cost shape of one cluster run: how
// many database scans a request performs and how many payload bytes one
// scan moves in total. Both are shard-count-independent (the events and
// hits a scan produces do not depend on how it was split), which is what
// lets one measured run extrapolate the whole N sweep.
type NetProfile struct {
	ScansPerRequest float64 `json:"scans_per_request"`
	BytesPerScan    float64 `json:"bytes_per_scan"`
}

// NetProfileFromStats derives the profile from a cluster run's stats.
func NetProfileFromStats(st Stats, requests int) NetProfile {
	p := NetProfile{}
	if requests > 0 {
		p.ScansPerRequest = float64(st.Scans) / float64(requests)
	}
	if st.Scans > 0 {
		p.BytesPerScan = float64(st.NetBytes) / float64(st.Scans)
	}
	return p
}

// perShardHeaderBytes is the fixed per-shard RPC framing added on top of
// the payload (which itself is N-independent).
const perShardHeaderBytes = 640

// netSecondsPerRequest models a request's scatter overhead at N shards:
// per scan, the RPCs fan out in parallel (one latency), the responses
// total the same payload regardless of N, and each shard adds fixed
// framing.
func netSecondsPerRequest(p NetProfile, net NetModel, shards int) float64 {
	if p.ScansPerRequest <= 0 {
		return 0
	}
	perScan := net.LatencySeconds + (p.BytesPerScan+float64(shards)*perShardHeaderBytes)/(net.GBps*1e9)
	return p.ScansPerRequest * perScan
}

// MSASecondsAtShards models one request's MSA time at N shards: the
// serial fraction is untouched, the parallel fraction shrinks to the
// largest shard's share (shards scan concurrently across nodes; the
// biggest one gates the gather), and the scatter RPCs add network time.
func MSASecondsAtShards(p RequestPoint, plan ShardPlan, records int, np NetProfile, net NetModel) float64 {
	share := plan.MaxShare(records)
	return p.MSASeconds*(p.SerialFraction+(1-p.SerialFraction)*share) +
		netSecondsPerRequest(np, net, plan.Shards)
}

// ScalingPoint is one (shards × replicas) cell of the scaling curve.
type ScalingPoint struct {
	Shards   int `json:"shards"`
	Replicas int `json:"replicas"`
	// MSASecondsPerRequest and NetSecondsPerRequest are trace means.
	MSASecondsPerRequest float64 `json:"msa_seconds_per_request"`
	NetSecondsPerRequest float64 `json:"net_seconds_per_request"`
	// ShardSpeedup is mean single-shard MSA time over mean N-shard MSA
	// time; ShardEfficiency divides it by N (1.0 = perfectly linear).
	ShardSpeedup    float64 `json:"shard_speedup"`
	ShardEfficiency float64 `json:"shard_efficiency"`
	// ModeledMakespan list-schedules the trace over R replicas' worker
	// pools; ThroughputRPS is requests over that makespan.
	ModeledMakespan float64 `json:"modeled_makespan_seconds"`
	ThroughputRPS   float64 `json:"throughput_rps"`
	// ReplicaEfficiency is throughput over R × the same-N single-replica
	// throughput (1.0 = replicas scale linearly).
	ReplicaEfficiency float64 `json:"replica_efficiency"`
}

// ScalingCurve is the BENCH_serve.json cluster scaling section: the
// modeled throughput surface over the N×R sweep, anchored in a measured
// single-node trace and a measured cluster net profile.
type ScalingCurve struct {
	Records    int            `json:"records_per_db"`
	Net        NetModel       `json:"net_model"`
	NetProfile NetProfile     `json:"net_profile"`
	MSAWorkers int            `json:"msa_workers_per_replica"`
	GPUWorkers int            `json:"gpu_workers_per_replica"`
	Requests   []RequestPoint `json:"request_points"`
	Points     []ScalingPoint `json:"points"`
}

// BuildScalingCurve sweeps shardCounts × replicaCounts over a measured
// trace. fingerprint seeds the shard plans (ownership does not affect the
// times, but keeps the plans identical to the live cluster's).
func BuildScalingCurve(points []RequestPoint, shardCounts, replicaCounts []int, records int, fingerprint string, np NetProfile, net NetModel, msaWorkers, gpuWorkers int) ScalingCurve {
	curve := ScalingCurve{
		Records:    records,
		Net:        net,
		NetProfile: np,
		MSAWorkers: msaWorkers,
		GPUWorkers: gpuWorkers,
		Requests:   points,
	}
	base := meanMSA(points, NewShardPlan(fingerprint, 1), records, np, net)
	for _, n := range shardCounts {
		plan := NewShardPlan(fingerprint, n)
		msaMean := meanMSA(points, plan, records, np, net)
		oneReplica := float64(len(points)) / makespan(points, plan, records, np, net, 1, msaWorkers, gpuWorkers)
		for _, r := range replicaCounts {
			mk := makespan(points, plan, records, np, net, r, msaWorkers, gpuWorkers)
			pt := ScalingPoint{
				Shards:               n,
				Replicas:             r,
				MSASecondsPerRequest: msaMean,
				NetSecondsPerRequest: netSecondsPerRequest(np, net, n),
				ModeledMakespan:      mk,
			}
			if msaMean > 0 {
				pt.ShardSpeedup = base / msaMean
				pt.ShardEfficiency = pt.ShardSpeedup / float64(n)
			}
			if mk > 0 {
				pt.ThroughputRPS = float64(len(points)) / mk
				if oneReplica > 0 {
					pt.ReplicaEfficiency = pt.ThroughputRPS / (float64(r) * oneReplica)
				}
			}
			curve.Points = append(curve.Points, pt)
		}
	}
	return curve
}

// ShardEfficiencyAt returns the curve's shard efficiency at a shard count
// (replica-independent), or 0 when the count was not swept. The chaos and
// smoke gates assert this ≥ 0.8 at 16 shards — the near-linear claim.
func (c ScalingCurve) ShardEfficiencyAt(shards int) float64 {
	for _, p := range c.Points {
		if p.Shards == shards {
			return p.ShardEfficiency
		}
	}
	return 0
}

func meanMSA(points []RequestPoint, plan ShardPlan, records int, np NetProfile, net NetModel) float64 {
	if len(points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range points {
		sum += MSASecondsAtShards(p, plan, records, np, net)
	}
	return sum / float64(len(points))
}

// makespan list-schedules the trace on R replicas' pools, on the modeled
// clock's lanes (vtime): each request takes the earliest-free MSA lane
// (R×msaWorkers lanes), then the earliest-free GPU lane (R×gpuWorkers
// lanes) no earlier than its MSA finish. Known model difference: the GPU
// stage is placed here in submit order, while serve.ModeledSchedule
// (vtime.TwoStage) places it in MSA-completion order. The scaling curve's
// bitwise contract keeps the submit-order placement; aligning the two
// changes modeled outputs and is left to its own issue (DESIGN §5).
func makespan(points []RequestPoint, plan ShardPlan, records int, np NetProfile, net NetModel, replicas, msaWorkers, gpuWorkers int) float64 {
	if replicas <= 0 || msaWorkers <= 0 || gpuWorkers <= 0 {
		return 0
	}
	msaLanes := make(vtime.Lanes, replicas*msaWorkers)
	gpuLanes := make(vtime.Lanes, replicas*gpuWorkers)
	var end float64
	for _, p := range points {
		_, _, msaEnd := msaLanes.Place(0, MSASecondsAtShards(p, plan, records, np, net))
		if _, _, infEnd := gpuLanes.Place(msaEnd, p.InferenceSeconds); infEnd > end {
			end = infEnd
		}
	}
	return end
}
