// Package cluster is the multi-node scale-out layer: it shards the MSA
// database scan across N simulated storage nodes (scatter-gather) and
// spreads serving traffic across R replicated servers behind a
// health-aware router.
//
// The paper's workload characterization shows MSA search over GiB-scale
// databases dominating end-to-end latency; a single process caps how far
// the ROADMAP's "heavy traffic" goal can scale. Following ParaFold's
// CPU/GPU stage split across machines (PAPERS.md), this package splits
// the remaining monolith two ways:
//
//   - Sharding (scatter.go): every database scan is scattered to shard
//     nodes, each owning a contiguous record range, and gathered through
//     the same deterministic hmmer.MergeResults the in-process engine
//     uses. The determinism contract from PR 1 extends node-wise: the
//     merged result — hits, counters, and per-worker metering — is
//     bitwise-identical to the single-node scan at every shard count, so
//     scaling out can never change what a request computes.
//
//   - Replication (router.go): R serve.Server replicas share one suite
//     (and optionally one cache), and a router steers each request to the
//     healthiest least-loaded replica, consuming the same readiness and
//     breaker state the HTTP /v1/readyz endpoint exposes. A replica that
//     dies mid-request is failed over with the request's chain checkpoint,
//     so finished chains are never recomputed.
//
// Network cost is modeled, not real: scatter RPCs charge latency plus
// payload bytes over a modeled link (DefaultNet), and the accounting
// feeds the scaling curve (scaling.go) rather than the request results —
// which is exactly what keeps the results shard-count-independent while
// the throughput model stays honest about coordination overhead.
package cluster

import (
	"fmt"
	"hash/fnv"
)

// NetModel prices one simulated scatter RPC: a fixed per-operation latency
// plus payload bytes over a bandwidth-limited link. DefaultNet is the only
// model ever priced.
type NetModel struct {
	// LatencySeconds is the per-RPC round-trip latency floor.
	LatencySeconds float64
	// GBps is the link bandwidth for payload bytes.
	GBps float64
}

// DefaultNet models an intra-cluster 25 GbE-class link: 200µs RPC
// round-trip, ~3 GB/s effective payload bandwidth.
func DefaultNet() NetModel {
	return NetModel{LatencySeconds: 200e-6, GBps: 3}
}

// Cost returns the modeled seconds to move payload bytes in one RPC.
func (n NetModel) Cost(bytes int64) float64 {
	return n.LatencySeconds + float64(bytes)/(n.GBps*1e9)
}

// ShardPlan maps (database, record range) to shard nodes. The identity is
// derived from msa.DBSet.Fingerprint, so two clusters over the same
// database content agree on ownership with no coordination — content
// addressing, the same property the chain cache keys rely on.
type ShardPlan struct {
	// Shards is the node count N.
	Shards int
	// identity is the fnv64a of the database-set fingerprint.
	identity uint64
}

// NewShardPlan builds the plan for N nodes over the database set named by
// fingerprint (msa.DBSet.Fingerprint()).
func NewShardPlan(fingerprint string, shards int) ShardPlan {
	if shards <= 0 {
		shards = 1
	}
	h := fnv.New64a()
	h.Write([]byte(fingerprint))
	return ShardPlan{Shards: shards, identity: h.Sum64()}
}

// Range returns shard s's contiguous record range [lo, hi) of a database
// with n records — the same arithmetic parallel.Shards uses for the
// in-process thread split, so shard boundaries are stable across the
// codebase.
func (p ShardPlan) Range(n, s int) (lo, hi int) {
	return n * s / p.Shards, n * (s + 1) / p.Shards
}

// Owner returns the node index that owns shard s of the named database.
// The per-database rotation (derived from the plan identity) spreads each
// database's shards across different nodes, so losing one node degrades
// every database a little instead of one database entirely.
func (p ShardPlan) Owner(dbName string, s int) int {
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|%s", p.identity, dbName)
	return (s + int(h.Sum64()%uint64(p.Shards))) % p.Shards
}

// ShardID names shard s of a database for logs and counters.
func (p ShardPlan) ShardID(dbName string, s int) string {
	return fmt.Sprintf("%s/%d of %d", dbName, s, p.Shards)
}

// MaxShare returns the largest fraction of an n-record database any single
// shard holds — the scan-time bound for the scatter-gather, since shards
// run in parallel across nodes and the slowest (largest) one gates the
// gather.
func (p ShardPlan) MaxShare(n int) float64 {
	if n <= 0 {
		return 0
	}
	max := 0
	for s := 0; s < p.Shards; s++ {
		lo, hi := p.Range(n, s)
		if hi-lo > max {
			max = hi - lo
		}
	}
	return float64(max) / float64(n)
}
