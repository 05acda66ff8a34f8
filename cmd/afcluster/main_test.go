package main

import (
	"strings"
	"testing"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.shards != 8 || o.replicas != 3 {
		t.Fatalf("defaults: %+v", o)
	}
	if _, err := parseFlags([]string{"-shards", "0"}); err == nil {
		t.Fatal("-shards 0 accepted")
	}
	if _, err := parseFlags([]string{"-n", "-1"}); err == nil {
		t.Fatal("-n -1 accepted")
	}
}

func TestParseCounts(t *testing.T) {
	got, err := parseCounts("1, 2,16")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 16 {
		t.Fatalf("parseCounts: %v", got)
	}
	if _, err := parseCounts("4,-1"); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := parseCounts(""); err == nil {
		t.Fatal("empty count list accepted")
	}
}

// TestScalingRunSmoke is the `make check` cluster smoke: a tiny sweep end
// to end — reference pass, live scatter-gather cluster pass, digest
// verification, scaling curve — asserting the determinism contract and
// the efficiency gate hold, and that the routing block is populated.
func TestScalingRunSmoke(t *testing.T) {
	// Through parseFlags, which resolves -queue 0 and -concurrency 0.
	o, err := parseFlags([]string{
		"-shards", "4", "-replicas", "2", "-sweep-shards", "1,2,16", "-sweep-replicas", "1,2",
		"-n", "6", "-mix", "2PV7:2,promo:1", "-seed", "7",
		"-threads", "2", "-msa-workers", "2", "-gpu-workers", "1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Queue != 7 || o.concurrency != 8 {
		t.Fatalf("-queue/-concurrency resolved to %d/%d, want 7/8", o.Queue, o.concurrency)
	}
	section, verdict, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdict.Violations {
		t.Errorf("violation: %s", v)
	}
	if !section.DigestMatch {
		t.Error("cluster results diverged from the single-node reference")
	}
	if section.Cluster.Scans == 0 || section.Cluster.Dispatches == 0 {
		t.Errorf("cluster stats empty: %+v", section.Cluster)
	}
	if section.Router.Completed != int64(o.n) {
		t.Errorf("router completed %d of %d", section.Router.Completed, o.n)
	}
	if eff := section.Curve.ShardEfficiencyAt(16); eff < 0.8 {
		t.Errorf("shard efficiency at 16 = %.3f, want ≥ 0.8", eff)
	}
	if section.Routing == nil || len(section.Routing.PerShard) != o.shards {
		t.Fatalf("routing block missing or wrong shard count: %+v", section.Routing)
	}
	var dispatches int64
	for _, row := range section.Routing.PerShard {
		dispatches += row.Dispatches
	}
	if dispatches != section.Cluster.Dispatches {
		t.Errorf("per-shard dispatches sum to %d, cluster counted %d", dispatches, section.Cluster.Dispatches)
	}
}

// TestChaosClusterSmoke runs the kill-storm gate at the shape of the `make
// chaos-cluster` target, just smaller: two shard nodes and one replica die
// mid-storm and every invariant must hold.
func TestChaosClusterSmoke(t *testing.T) {
	o, err := parseFlags([]string{
		"-chaos", "-seed", "13", "-shards", "8", "-replicas", "3", "-n", "12", "-concurrency", "4", "-mix", "2PV7:3,1YY9:2",
		"-threads", "2", "-msa-workers", "2", "-gpu-workers", "1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := runChaos(o); err != nil {
		t.Fatalf("chaos-cluster gate failed: %v", err)
	}
	if _, err := parseFlags([]string{"-chaos", "-shards", "2"}); err == nil {
		t.Fatal("-chaos with two shards accepted (two nodes die)")
	}
	// -n 12 at the default concurrency (2·3·2 = 12) puts the whole trace in
	// flight at once: the victim replica can be idle by the kill trigger.
	if _, err := parseFlags([]string{"-chaos", "-n", "12"}); err == nil || !strings.Contains(err.Error(), "still be arriving") {
		t.Fatalf("-chaos with n < 2×concurrency: err = %v", err)
	}
}
