package cluster

import (
	"context"
	"fmt"
	"sync"

	"afsysbench/internal/hmmer"
	"afsysbench/internal/metering"
	"afsysbench/internal/msa"
)

// Config tunes a scatter-gather Cluster.
type Config struct {
	// Shards is the simulated node count N (default 1).
	Shards int
	// Fingerprint is the database-set identity (msa.DBSet.Fingerprint())
	// the shard plan derives ownership from.
	Fingerprint string
}

// Cluster scatter-gathers MSA database scans across N simulated shard
// nodes. Its Scatter method satisfies msa.ScatterFunc and honors the
// bitwise-determinism contract: every scan segment is the intersection of
// a shard node's record range with a global worker's record range, and the
// gather joins each worker's segment folds in ascending record order —
// so the merged result, including per-worker metering attribution, is
// identical to the in-process scan at the same thread count regardless of
// N, node deaths, or failovers.
type Cluster struct {
	plan ShardPlan

	mu    sync.Mutex
	nodes []nodeState
	stats Stats
}

type nodeState struct {
	alive      bool
	dispatches int64
	failovers  int64
	killed     bool // ever killed (stays set through Revive, for reporting)
}

// Stats is the cluster's dispatch accounting. Network seconds are modeled
// coordination overhead for the scaling curve; they never enter the
// request results (which is what keeps results shard-count-independent).
type Stats struct {
	// Scans counts scatter-gather scan operations (one per database scan).
	Scans int64 `json:"scans"`
	// Dispatches counts shard scans landed on a node; Failovers counts
	// attempts that had to move on — a dead owner skipped or a node that
	// died mid-scan.
	Dispatches int64 `json:"dispatches"`
	Failovers  int64 `json:"failovers"`
	// NetOps/NetBytes/NetSeconds price the scatter RPCs.
	NetOps     int64   `json:"net_ops"`
	NetBytes   int64   `json:"net_bytes"`
	NetSeconds float64 `json:"net_seconds"`
	// PerNode is one row per shard node, in node order.
	PerNode []NodeStats `json:"per_node"`
}

// NodeStats is one node's row in the cluster stats.
type NodeStats struct {
	Node       int   `json:"node"`
	Alive      bool  `json:"alive"`
	Killed     bool  `json:"killed,omitempty"`
	Dispatches int64 `json:"dispatches"`
	Failovers  int64 `json:"failovers"`
}

// New builds a cluster of cfg.Shards nodes, all alive.
func New(cfg Config) *Cluster {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	c := &Cluster{
		plan:  NewShardPlan(cfg.Fingerprint, cfg.Shards),
		nodes: make([]nodeState, cfg.Shards),
	}
	for i := range c.nodes {
		c.nodes[i].alive = true
	}
	return c
}

// KillNode marks node i dead: its shards fail over to the next alive node
// in rotation, and a scan in flight on it is discarded and re-dispatched.
func (c *Cluster) KillNode(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= 0 && i < len(c.nodes) {
		c.nodes[i].alive = false
		c.nodes[i].killed = true
	}
}

// ReviveNode brings node i back into rotation.
func (c *Cluster) ReviveNode(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= 0 && i < len(c.nodes) {
		c.nodes[i].alive = true
	}
}

// NodeAlive reports whether node i is in rotation.
func (c *Cluster) NodeAlive(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return i >= 0 && i < len(c.nodes) && c.nodes[i].alive
}

// AliveNodes counts nodes in rotation.
func (c *Cluster) AliveNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, nd := range c.nodes {
		if nd.alive {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the dispatch accounting.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.PerNode = make([]NodeStats, len(c.nodes))
	for i, nd := range c.nodes {
		st.PerNode[i] = NodeStats{
			Node:       i,
			Alive:      nd.alive,
			Killed:     nd.killed,
			Dispatches: nd.dispatches,
			Failovers:  nd.failovers,
		}
	}
	return st
}

// segment is one scan unit: the intersection of a shard's record range
// with global worker `worker`'s range. Its metering folds per record
// into a private accumulator, sized from the segment's record count, and
// the fold joins the worker's accumulator at gather time, in ascending
// record order.
type segment struct {
	worker int
	lo, hi int
	res    *hmmer.Result
	fold   *metering.Fold
}

// Scatter is the msa.ScatterFunc implementation: split the database into
// (shard × worker) intersection segments, dispatch each shard's segments
// to its owner node (failing over along the rotation when nodes are dead
// or die mid-scan), then gather — merge the hit lists with
// hmmer.MergeResults and join each worker's segment folds in record
// order.
func (c *Cluster) Scatter(ctx context.Context, req msa.ScatterRequest) (*hmmer.Result, error) {
	n := len(req.DB.Seqs)
	t := req.Threads
	c.mu.Lock()
	c.stats.Scans++
	c.mu.Unlock()

	// Build the segment list, worker by worker, so it is in record order.
	// Worker spans use the same contiguous-split arithmetic as
	// parallel.Span, so segment boundaries nest exactly inside the
	// ScatterRequest's per-worker ranges.
	byShard := make([][]*segment, c.plan.Shards)
	var segs []*segment
	for w := 0; w < t; w++ {
		wlo, whi := n*w/t, n*(w+1)/t
		for s := 0; s < c.plan.Shards; s++ {
			slo, shi := c.plan.Range(n, s)
			lo, hi := max(slo, wlo), min(shi, whi)
			if lo >= hi {
				continue
			}
			g := &segment{worker: w, lo: lo, hi: hi}
			segs = append(segs, g)
			byShard[s] = append(byShard[s], g)
		}
	}

	// Dispatch each non-empty shard concurrently — the scatter. The RPCs'
	// modeled seconds are added in shard order once every shard is back,
	// so a scan's float sum does not depend on which dispatch finished
	// first.
	var wg sync.WaitGroup
	errs := make([]error, c.plan.Shards)
	secs := make([]float64, c.plan.Shards)
	for s := 0; s < c.plan.Shards; s++ {
		if len(byShard[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			secs[s], errs[s] = c.dispatch(ctx, s, req, byShard[s])
		}(s)
	}
	wg.Wait()
	c.mu.Lock()
	for _, sec := range secs {
		c.stats.NetSeconds += sec
	}
	c.mu.Unlock()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Gather. Segment folds join their worker's accumulator in ascending
	// record order — the records the in-process scan would have folded —
	// and the parts merge through the same deterministic MergeResults.
	parts := make([]*hmmer.Result, len(segs))
	for i, g := range segs {
		req.Workers[g.worker].Join(g.fold)
		parts[i] = g.res
	}
	return hmmer.MergeResults(req.Query.ID, parts), nil
}

// dispatch runs one shard's segments on a node, walking the ownership
// rotation until an alive node completes them. A node that is dead at
// dispatch time, or that is killed while the scan is in flight, counts one
// failover and the next candidate redoes the segments from scratch — the
// recompute is free of determinism risk because the scan is a pure
// function of the records and the profile. It returns the modeled seconds
// of the RPC that landed.
func (c *Cluster) dispatch(ctx context.Context, shard int, req msa.ScatterRequest, segs []*segment) (float64, error) {
	owner := c.plan.Owner(req.DB.Name, shard)
	for k := 0; k < c.plan.Shards; k++ {
		node := (owner + k) % c.plan.Shards
		if !c.NodeAlive(node) {
			c.noteFailover(node)
			continue
		}
		if err := c.runSegments(ctx, req, segs); err != nil {
			return 0, err
		}
		if !c.NodeAlive(node) {
			// Killed mid-scan: the in-flight work is lost with the node,
			// and the next candidate's scan replaces it.
			c.noteFailover(node)
			continue
		}
		return c.noteDispatch(node, req, segs), nil
	}
	return 0, fmt.Errorf("cluster: shard %s unavailable: all %d nodes dead",
		c.plan.ShardID(req.DB.Name, shard), c.plan.Shards)
}

// runSegments scans each segment with a private scaled accumulator and
// takes its fold.
func (c *Cluster) runSegments(ctx context.Context, req msa.ScatterRequest, segs []*segment) error {
	for _, g := range segs {
		acc := &metering.Accumulator{}
		acc.Reserve(g.hi - g.lo)
		meter := metering.Scaled(acc, req.ScaleFactor)
		src := &hmmer.SliceSource{Seqs: req.DB.Seqs[g.lo:g.hi]}
		res, err := hmmer.ScanRecordsCtx(ctx, req.Profile, req.Query, src, req.DB.TotalResidues(), req.Search, meter)
		if err != nil {
			return err
		}
		g.res, g.fold = res, acc.TakeFold()
	}
	return nil
}

func (c *Cluster) noteFailover(node int) {
	c.mu.Lock()
	c.stats.Failovers++
	c.nodes[node].failovers++
	c.mu.Unlock()
}

// noteDispatch records a successful shard dispatch and prices its RPC:
// the query and profile go out, the hit list and metering come back,
// priced per event: the events folded, one per probe entry, and the
// reader lane's three per record — the work the database's lengths and
// table hold in place of the fold. It returns the RPC's modeled seconds,
// which Scatter adds to Stats — never to the result.
func (c *Cluster) noteDispatch(node int, req msa.ScatterRequest, segs []*segment) float64 {
	const eventBytes, readerEvents = 112, 3
	reqBytes := int64(req.Query.Len()) + 512
	var respBytes int64
	for _, g := range segs {
		respBytes += int64(len(g.res.Hits))*96 + 128
		respBytes += int64(g.hi-g.lo) * readerEvents * eventBytes
		for _, r := range g.fold.Rows {
			respBytes += int64(r.Events) * eventBytes
		}
		for _, p := range g.fold.Probes {
			if p != 0 {
				respBytes += eventBytes
			}
		}
	}
	c.mu.Lock()
	c.stats.Dispatches++
	c.nodes[node].dispatches++
	c.stats.NetOps++
	c.stats.NetBytes += reqBytes + respBytes
	c.mu.Unlock()
	return DefaultNet().Cost(reqBytes + respBytes)
}
