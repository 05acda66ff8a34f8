package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/serve"
)

func TestParseMix(t *testing.T) {
	samples, weights, err := inputs.ParseMix("promo:1,1YY9:9")
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[0] != "promo" || weights[1] != 9 {
		t.Fatalf("mix = %v %v", samples, weights)
	}
	// Bare names default to weight 1.
	samples, weights, err = inputs.ParseMix("2PV7")
	if err != nil || weights[0] != 1 || samples[0] != "2PV7" {
		t.Fatalf("bare mix = %v %v (%v)", samples, weights, err)
	}
	for _, bad := range []string{"", "a:0", "a:-1", "a:x"} {
		if _, _, err := inputs.ParseMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

func TestBuildTraceDeterministic(t *testing.T) {
	samples, weights, err := inputs.ParseMix("promo:1,1YY9:9")
	if err != nil {
		t.Fatal(err)
	}
	a := inputs.WeightedTrace(samples, weights, 50, 7)
	b := inputs.WeightedTrace(samples, weights, 50, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace not deterministic at %d: %s vs %s", i, a[i], b[i])
		}
	}
	// The weights steer the draw: 1YY9 must dominate a 1:9 mix.
	counts := map[string]int{}
	for _, s := range a {
		counts[s]++
	}
	if counts["1YY9"] <= counts["promo"] {
		t.Fatalf("mix weights ignored: %v", counts)
	}
	// A different seed reshuffles.
	c := inputs.WeightedTrace(samples, weights, 50, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed does not influence the trace")
	}
}

func TestParseFlagsValidation(t *testing.T) {
	if _, err := parseFlags([]string{"-n", "0"}); err == nil {
		t.Fatal("-n 0 accepted")
	}
	if _, err := parseFlags([]string{"-addr", "http://x", "-compare-cache"}); err == nil {
		t.Fatal("-compare-cache with -addr accepted")
	}
	if _, err := parseFlags([]string{"-addr", "http://x", "-cache-dir", "/tmp/x"}); err == nil {
		t.Fatal("-cache-dir with -addr accepted")
	}
	if _, err := parseFlags([]string{"-warm"}); err == nil {
		t.Fatal("-warm without -cache-dir accepted")
	}
	if _, err := parseFlags([]string{"-ppi", "999"}); err == nil {
		t.Fatal("-ppi beyond the pool accepted")
	}
	// The chaos gates are mutually exclusive and each drives its own trace:
	// flags the gate would silently ignore must be rejected, not swallowed.
	if _, err := parseFlags([]string{"-chaos", "-chaos-disk"}); err == nil {
		t.Fatal("-chaos with -chaos-disk accepted")
	}
	for _, extra := range [][]string{
		{"-ppi", "4"}, {"-cache-dir", "/tmp/x"}, {"-warm"}, {"-compare-cache"},
	} {
		if _, err := parseFlags(append([]string{"-chaos"}, extra...)); err == nil {
			t.Fatalf("-chaos with %v accepted (the fault storm ignores it)", extra)
		}
	}
	if _, err := parseFlags([]string{"-chaos-disk", "-warm"}); err == nil {
		t.Fatal("-chaos-disk with -warm accepted")
	}
	if _, err := parseFlags([]string{"-chaos-disk", "-compare-cache"}); err == nil {
		t.Fatal("-chaos-disk with -compare-cache accepted")
	}
	// But -chaos-disk really does consume -ppi and -cache-dir.
	if _, err := parseFlags([]string{"-chaos-disk", "-ppi", "4", "-cache-dir", "/tmp/x"}); err != nil {
		t.Fatalf("-chaos-disk with -ppi/-cache-dir rejected: %v", err)
	}
	// Cache-dependent modes need the memory tier in front of them.
	if _, err := parseFlags([]string{"-compare-cache", "-cache-mb", "0"}); err == nil {
		t.Fatal("-compare-cache with -cache-mb 0 accepted")
	}
	if _, err := parseFlags([]string{"-cache-dir", "/tmp/x", "-cache-mb", "0"}); err == nil {
		t.Fatal("-cache-dir with -cache-mb 0 accepted")
	}
	// -ppi overrides the trace shape: explicitly set -mix/-n must error
	// instead of being silently discarded, while the defaults pass.
	if _, err := parseFlags([]string{"-ppi", "4", "-mix", "promo:1"}); err == nil {
		t.Fatal("-ppi with explicit -mix accepted")
	}
	if _, err := parseFlags([]string{"-ppi", "4", "-n", "50"}); err == nil {
		t.Fatal("-ppi with explicit -n accepted")
	}
	if _, err := parseFlags([]string{"-ppi", "4"}); err != nil {
		t.Fatalf("-ppi with default -mix/-n rejected: %v", err)
	}
}

// TestEndToEndComparison runs a small in-process comparison and checks the
// report invariants the serve-bench target relies on: a repeat-heavy mix
// hits the cache and the cached pass beats the uncached one.
func TestEndToEndComparison(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	err = run([]string{
		"-n", "6", "-concurrency", "2", "-mix", "1YY9:1",
		"-threads", "4", "-msa-workers", "2",
		"-compare-cache", "-json", jsonPath,
	}, devnull)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep serve.LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.WithCache == nil || rep.NoCache == nil {
		t.Fatal("report missing a pass")
	}
	if rep.WithCache.Completed != 6 || rep.NoCache.Completed != 6 {
		t.Fatalf("incomplete passes: %+v / %+v", rep.WithCache, rep.NoCache)
	}
	// One distinct query, six requests: five of six served by the cache.
	if rep.WithCache.CacheHitRate < 0.8 {
		t.Fatalf("hit rate = %v", rep.WithCache.CacheHitRate)
	}
	if rep.WithCache.Throughput <= rep.NoCache.Throughput {
		t.Fatalf("cache did not buy throughput: %.2f vs %.2f req/s",
			rep.WithCache.Throughput, rep.NoCache.Throughput)
	}
	if rep.ThroughputSpeedup <= 1 {
		t.Fatalf("speedup = %v", rep.ThroughputSpeedup)
	}
	if rep.WithCache.ModeledSerial <= rep.WithCache.ModeledMakespan {
		t.Fatalf("modeled schedule not better than serial: %+v", rep.WithCache)
	}
}

// TestWarmTwoTierPPI runs the serve-bench shape end to end: a PPI screen
// over a warmed disk tier with the request-keyed baseline, checking the
// two-tier accounting the BENCH_serve.json artifact reports.
func TestWarmTwoTierPPI(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bench.json")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	err = run([]string{
		"-ppi", "4", "-concurrency", "2",
		"-threads", "2", "-msa-workers", "2",
		"-cache-dir", filepath.Join(dir, "tier"),
		"-warm", "-compare-cache", "-json", jsonPath,
	}, devnull)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep serve.LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Warm == nil || rep.WithCache == nil || rep.Baseline == nil {
		t.Fatal("report missing a pass")
	}
	// The warm pass computed each of the 4 pool chains once and shared
	// the remaining lookups in memory.
	if rep.Warm.ChainFresh != 4 || rep.Warm.ChainMemHits == 0 {
		t.Fatalf("warm pass chains: %+v", rep.Warm)
	}
	// The measured pass starts with a cold memory tier over a warm disk:
	// nothing is computed fresh, and the disk serves each chain's first
	// sighting.
	if rep.WithCache.ChainFresh != 0 || rep.WithCache.ChainDiskHits != 4 {
		t.Fatalf("measured pass chains: %+v", rep.WithCache)
	}
	if rep.WithCache.Disk == nil || rep.WithCache.Disk.Hits < 4 {
		t.Fatalf("disk stats: %+v", rep.WithCache.Disk)
	}
	// Every pair in the all-vs-all trace is distinct, so request-keyed
	// caching shares nothing and chain keys must win the modeled
	// makespan.
	if rep.Baseline.ChainMemHits != 0 || rep.Baseline.ChainDiskHits != 0 {
		t.Fatalf("request-keyed baseline shared chains: %+v", rep.Baseline)
	}
	if rep.MakespanImprovement <= 1 {
		t.Fatalf("makespan improvement = %v", rep.MakespanImprovement)
	}
}

// TestChaosDiskGate runs the full disk-fault chaos sequence at the same
// shape as the `make chaos-disk` target, just smaller.
func TestChaosDiskGate(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	err = run([]string{
		"-chaos-disk", "-seed", "11", "-ppi", "3",
		"-concurrency", "2", "-threads", "2", "-msa-workers", "2",
	}, devnull)
	if err != nil {
		t.Fatalf("chaos-disk gate failed: %v", err)
	}
}

// TestChaosGateSmoke runs the fault-storm gate at the shape of the `make
// chaos` target, just smaller: every invariant must hold and the JSON
// report must carry no violations.
func TestChaosGateSmoke(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "chaos.json")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	err = run([]string{
		"-chaos", "-seed", "7", "-n", "24", "-concurrency", "4", "-mix", "2PV7:4,1YY9:1",
		"-threads", "2", "-msa-workers", "4", "-gpu-workers", "2", "-json", jsonPath,
	}, devnull)
	if err != nil {
		t.Fatalf("chaos gate failed: %v", err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep ChaosReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 24 || rep.Done+rep.Failed != 24 || len(rep.Violations) != 0 {
		t.Fatalf("chaos report: %+v", rep)
	}
	if rep.WorkerPanics < 1 || rep.BreakerTrips < 1 || rep.ChainsRestored < 1 {
		t.Fatalf("storm did not exercise the fault paths: %+v", rep)
	}
}

// TestBatchSweepGate runs the `make batch-smoke` sweep and pins its modeled
// headline: 81.6% unbatched overhead for the small input, under 50% from
// batch 6 on (first dispatch).
func TestBatchSweepGate(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if err := run([]string{"-batch-sweep", "-n", "16", "-json", jsonPath}, devnull); err != nil {
		t.Fatalf("batch-sweep gate failed: %v", err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Section crossoverSection `json:"batch_crossover"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	sec := doc.Section
	if math.Round(1000*sec.UnbatchedOverhead) != 816 || sec.CrossoverFirst != 6 || sec.CrossoverFirst >= sec.MaxBatch {
		t.Fatalf("crossover moved: unbatched %.4f, first crossover %d, cap %d", sec.UnbatchedOverhead, sec.CrossoverFirst, sec.MaxBatch)
	}
	if len(sec.OfferedLoad) != 4 || len(sec.BucketSweep) != len(sweepBucketSets()) {
		t.Fatalf("measured sweeps incomplete: %d load points, %d bucket points", len(sec.OfferedLoad), len(sec.BucketSweep))
	}
}
