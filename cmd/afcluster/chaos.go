// The cluster kill-storm gate (`afcluster -chaos`, wired as `make
// chaos-cluster`): drive a seeded trace through the full scale-out stack
// while whole shard nodes and a serving replica are killed mid-storm, and
// assert the blast radius stayed contained:
//
//   - zero wrong results — every completed request's digest matches the
//     single-node reference, kills or not (the scatter determinism
//     contract under fire);
//   - zero lost requests — the router failed every affected request over
//     to surviving replicas/nodes;
//   - the degradation was COUNTED — shard failovers and router failovers
//     both nonzero, because a resilience layer that cannot see its own
//     failovers cannot be monitored;
//   - surviving replicas at full worker strength, killed ones rejected;
//   - no goroutine leaks once the storm drains.
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"afsysbench/internal/scenario"
	"afsysbench/internal/serve"
)

const (
	// killNodeA/killNodeB are the shard nodes killed mid-storm (the rig
	// keeps N ≥ 3 so shards always have a surviving owner); victimReplica
	// is the serving replica killed while it has requests in flight.
	killNodeA     = 2
	killNodeB     = 5
	victimReplica = 1
)

func runChaos(o options) error {
	var verdict scenario.Verdict
	baseline := runtime.NumGoroutine()

	rig, err := buildRig(o, "chaos-cluster")
	if err != nil {
		return err
	}
	trace, digests := rig.trace, rig.digests
	fmt.Fprintf(os.Stderr, "chaos-cluster: killing nodes %d,%d and replica %d mid-storm\n", killNodeA, killNodeB, victimReplica)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)

	// Kill triggers: node A after a third of the trace completes, node B
	// plus the victim replica after half. The replica kill waits (briefly)
	// for in-flight work on the victim so the death actually strands
	// requests mid-stage instead of hitting an idle server; stranded records
	// whether it found any (read after killsDone closes).
	stranded := false
	killsDone := make(chan struct{})
	progress := make(chan int, o.n)
	go func() {
		defer close(killsDone)
		first, second := o.n/3, o.n/2
		done := 0
		killedA, killedB := false, false
		for range progress {
			done++
			if !killedA && done >= first {
				rig.cl.KillNode(killNodeA)
				killedA = true
			}
			if !killedB && done >= second {
				deadline := time.Now().Add(2 * time.Second)
				for rig.router.Outstanding(victimReplica) == 0 && time.Now().Before(deadline) {
					time.Sleep(200 * time.Microsecond)
				}
				stranded = rig.router.Outstanding(victimReplica) > 0
				rig.cl.KillNode(killNodeB)
				rig.router.Kill(victimReplica)
				killedB = true
			}
		}
	}()
	results, errs := rig.drive(ctx, o, func(int) { progress <- 1 })
	close(progress)
	<-killsDone
	cancel()

	// Invariant: every request completed with the reference digest.
	wrong, lost := 0, 0
	for i := range results {
		if errs[i] != nil {
			lost++
			if lost <= 3 {
				verdict.Failf("request %d (%s) lost: %v", i, trace[i], errs[i])
			}
			continue
		}
		if results[i].Result == nil {
			lost++
			continue
		}
		if results[i].Result.Digest() != digests[trace[i]] {
			wrong++
			if wrong <= 3 {
				verdict.Failf("request %d (%s): WRONG RESULT after kill storm", i, trace[i])
			}
		}
	}
	if lost > 3 {
		verdict.Failf("… and %d more lost requests", lost-3)
	}

	// Invariant: the degradation was counted, node by node.
	clStats := rig.cl.Stats()
	rtStats := rig.router.Stats()
	if clStats.Failovers == 0 {
		verdict.Failf("two shard nodes died but cluster stats count zero failovers")
	}
	switch {
	case !stranded:
		verdict.Failf("storm too short to strand a request on replica %d: it was idle for 2 s after half the trace completed", victimReplica)
	case rtStats.Failovers == 0 && rtStats.ShedReroutes == 0:
		verdict.Failf("a replica died mid-storm but router stats count zero failovers/reroutes")
	}
	if !clStats.PerNode[killNodeA].Killed || !clStats.PerNode[killNodeB].Killed {
		verdict.Failf("killed shard nodes not marked in per-node stats")
	}
	if rig.cl.AliveNodes() != o.shards-2 {
		verdict.Failf("alive nodes = %d, want %d", rig.cl.AliveNodes(), o.shards-2)
	}

	// Invariant: survivors at full strength, the victim rejecting.
	for i, srv := range rig.replicas {
		if i == victimReplica {
			if !srv.Killed() {
				verdict.Failf("victim replica not marked killed")
			}
			if _, err := srv.Submit(serve.Request{Sample: trace[0]}); err == nil {
				verdict.Failf("killed replica accepted a submission after the storm")
			}
			continue
		}
		if ph := srv.PoolHealth(); !ph.FullStrength() {
			verdict.Failf("surviving replica %d pool degraded: %+v", i, ph)
		}
	}

	rig.stop()

	// Invariant: no goroutine leaks once the storm drains.
	verdict.AwaitGoroutines(baseline)

	fmt.Fprintf(os.Stderr, "chaos-cluster: %d requests, %d wrong, %d lost; shard failovers=%d, router failovers=%d, shed reroutes=%d\n",
		o.n, wrong, lost, clStats.Failovers, rtStats.Failovers, rtStats.ShedReroutes)
	return verdict.Finish(os.Stderr, "chaos-cluster", nil, "", fmt.Sprintf("go run ./cmd/afcluster -chaos -shards %d -replicas %d -n %d -concurrency %d -mix %s -seed %d -threads %d -msa-workers %d -gpu-workers %d",
		o.shards, o.replicas, o.n, o.concurrency, o.mix, o.seed, o.Threads, o.MSAWorkers, o.GPUWorkers))
}
