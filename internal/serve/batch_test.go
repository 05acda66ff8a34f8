package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"afsysbench/internal/batch"
	"afsysbench/internal/inputs"
)

// runBatchTrace submits the whole trace before Start — which, with one MSA
// worker, pins the dispatcher's arrival order to the submit order — then
// drains it and returns the statuses.
func runBatchTrace(t *testing.T, s *Server, trace []string) []JobStatus {
	t.Helper()
	for _, sample := range trace {
		if _, err := s.Submit(Request{Sample: sample}); err != nil {
			t.Fatalf("submit %s: %v", sample, err)
		}
	}
	s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	return s.Statuses()
}

// batchTrace mixes the small samples so consecutive same-bucket runs and
// bucket switches both occur.
func batchTrace() []string {
	return []string{"2PV7", "2PV7", "2PV7", "2PV7", "7RCE", "1YY9", "1YY9", "2PV7"}
}

// TestBatchDeterminismAcrossGPUWorkers is the tentpole contract: with the
// arrival order pinned, batch composition, per-request batch attribution
// (ID, size, bucket, amortized charge) and the per-request results are all
// identical at any GPU worker count — and the composition matches
// batch.Plan, the pure-function spec the dispatcher implements
// incrementally.
func TestBatchDeterminismAcrossGPUWorkers(t *testing.T) {
	trace := batchTrace()
	bcfg := BatchConfig{Enabled: true, Buckets: []int{512, 1024, 2048}, MaxBatch: 3}

	type row struct {
		batchID, fp  string
		size, bucket int
		charged      float64
	}
	var want []row
	var wantBuckets int
	for gi, gpu := range []int{1, 2, 3} {
		s := newTestServer(t, Config{
			Threads: 4, MSAWorkers: 1, GPUWorkers: gpu,
			ColdModel: true, Batch: bcfg,
		})
		statuses := runBatchTrace(t, s, trace)
		var got []row
		for _, st := range statuses {
			if st.State != "done" {
				t.Fatalf("gpu=%d job %s: state %s (err %s)", gpu, st.ID, st.State, st.Error)
			}
			got = append(got, row{
				batchID: st.BatchID, fp: fingerprint(t, s, st.ID),
				size: st.BatchSize, bucket: st.BucketTokens,
				charged: st.ChargedInferenceSeconds,
			})
		}
		rep := s.BatchReport()
		if rep == nil {
			t.Fatal("BatchReport nil with batching enabled")
		}
		distinct := len(rep.PerBucket)
		if gi == 0 {
			want = got
			wantBuckets = distinct

			// Composition must equal the pure plan over the submit order.
			items := make([]batch.Item, len(trace))
			for i, name := range trace {
				in, err := inputs.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				items[i] = batch.Item{Tokens: in.TotalResidues()}
			}
			pol := batch.NewPolicy(bcfg.Buckets)
			groups := pol.Plan(items, func(int) int { return bcfg.MaxBatch })
			if len(groups) != rep.Batches {
				t.Fatalf("dispatched %d batches, plan has %d groups", rep.Batches, len(groups))
			}
			for _, g := range groups {
				for _, idx := range g {
					if got[idx].size != len(g) {
						t.Errorf("request %d: batch size %d, plan group size %d", idx, got[idx].size, len(g))
					}
				}
				for _, idx := range g[1:] {
					if got[idx].batchID != got[g[0]].batchID {
						t.Errorf("requests %d and %d planned together but dispatched apart", g[0], idx)
					}
				}
			}
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("gpu=%d request %d diverged:\n  want %+v\n  got  %+v", gpu, i, want[i], got[i])
			}
		}
		if distinct != wantBuckets {
			t.Errorf("gpu=%d: %d buckets used, want %d", gpu, distinct, wantBuckets)
		}
	}
}

// TestBatchChargedSumsToBatchTotal checks honest attribution: the amortized
// per-request charges sum to the modeled batch totals, and compile is
// charged exactly once per distinct bucket (the compiled-graph cache's
// misses), with every later same-bucket batch a hit.
func TestBatchChargedSumsToBatchTotal(t *testing.T) {
	s := newTestServer(t, Config{
		Threads: 4, MSAWorkers: 1, GPUWorkers: 2,
		ColdModel: true,
		Batch:     BatchConfig{Enabled: true, MaxBatch: 3},
	})
	statuses := runBatchTrace(t, s, batchTrace())
	var sum float64
	for _, st := range statuses {
		if st.State != "done" {
			t.Fatalf("job %s: state %s (err %s)", st.ID, st.State, st.Error)
		}
		if st.ChargedInferenceSeconds <= 0 {
			t.Errorf("job %s charged %v inference seconds", st.ID, st.ChargedInferenceSeconds)
		}
		sum += st.ChargedInferenceSeconds
	}
	rep := s.BatchReport()
	if rep.BatchedJobs != len(statuses) {
		t.Fatalf("batched jobs %d != completed %d", rep.BatchedJobs, len(statuses))
	}
	if diff := sum - rep.TotalSeconds; diff > 1e-9*rep.TotalSeconds || diff < -1e-9*rep.TotalSeconds {
		t.Errorf("charged sum %.9f != batch total %.9f", sum, rep.TotalSeconds)
	}
	distinct := len(rep.PerBucket)
	if int(rep.CompileCache.Misses) != distinct {
		t.Errorf("compile misses %d, want one per distinct bucket (%d)", rep.CompileCache.Misses, distinct)
	}
	if int(rep.CompileCache.Hits) != rep.Batches-distinct {
		t.Errorf("compile hits %d, want %d (batches minus first-of-bucket)", rep.CompileCache.Hits, rep.Batches-distinct)
	}
	var misses int64
	for _, row := range rep.PerBucket {
		misses += row.CompileMisses
		if row.CompileMisses != 1 {
			t.Errorf("bucket %d: %d compile misses, want 1", row.Bucket, row.CompileMisses)
		}
	}
	if misses != int64(distinct) {
		t.Errorf("per-bucket misses sum %d != distinct buckets %d", misses, distinct)
	}
}

// TestBatchPaddingWasteAccounting checks the meter against hand-computed
// token sums: every request is counted once in its bucket, padded tokens
// are bucket × requests, and the waste percentages follow.
func TestBatchPaddingWasteAccounting(t *testing.T) {
	trace := batchTrace()
	buckets := []int{512, 1024, 2048}
	s := newTestServer(t, Config{
		Threads: 4, MSAWorkers: 1, GPUWorkers: 1,
		ColdModel: true,
		Batch:     BatchConfig{Enabled: true, Buckets: buckets},
	})
	statuses := runBatchTrace(t, s, trace)
	for _, st := range statuses {
		if st.State != "done" {
			t.Fatalf("job %s: state %s (err %s)", st.ID, st.State, st.Error)
		}
	}

	pol := batch.NewPolicy(buckets)
	wantReq := make(map[int]int)
	wantActual := make(map[int]int64)
	for _, name := range trace {
		in, err := inputs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		n := in.TotalResidues()
		b := pol.PadTo(n)
		wantReq[b]++
		wantActual[b] += int64(n)
	}
	rep := s.BatchReport()
	if len(rep.PerBucket) != len(wantReq) {
		t.Fatalf("%d bucket rows, want %d", len(rep.PerBucket), len(wantReq))
	}
	var padded, actual int64
	for _, row := range rep.PerBucket {
		if row.Requests != wantReq[row.Bucket] {
			t.Errorf("bucket %d: %d requests, want %d", row.Bucket, row.Requests, wantReq[row.Bucket])
		}
		if row.ActualTokens != wantActual[row.Bucket] {
			t.Errorf("bucket %d: actual tokens %d, want %d", row.Bucket, row.ActualTokens, wantActual[row.Bucket])
		}
		if want := int64(row.Bucket) * int64(row.Requests); row.PaddedTokens != want {
			t.Errorf("bucket %d: padded tokens %d, want %d", row.Bucket, row.PaddedTokens, want)
		}
		if row.ActualTokens <= 0 || row.ActualTokens > row.PaddedTokens {
			t.Errorf("bucket %d: %d of %d padded tokens owned, want some and at most all", row.Bucket, row.ActualTokens, row.PaddedTokens)
		}
		padded += row.PaddedTokens
		actual += row.ActualTokens
	}
	if want := 100 * float64(padded-actual) / float64(padded); rep.PaddingWastePct != want {
		t.Errorf("aggregate waste %.4f%%, want %.4f%%", rep.PaddingWastePct, want)
	}
}

// TestBatchStructuralInvariance checks the canonical-result half of the
// determinism contract: batching (at any bucket configuration) changes the
// charged attribution only — the per-request pipeline results are bitwise
// identical to unbatched serving.
func TestBatchStructuralInvariance(t *testing.T) {
	trace := batchTrace()
	configs := []Config{
		{Threads: 4, MSAWorkers: 1, GPUWorkers: 1},
		{Threads: 4, MSAWorkers: 1, GPUWorkers: 1,
			Batch: BatchConfig{Enabled: true, MaxBatch: 4}},
		{Threads: 4, MSAWorkers: 1, GPUWorkers: 2,
			Batch: BatchConfig{Enabled: true, Buckets: []int{2048}}},
	}
	var want []string
	for ci, cfg := range configs {
		s := newTestServer(t, cfg)
		statuses := runBatchTrace(t, s, trace)
		var got []string
		for _, st := range statuses {
			if st.State != "done" {
				t.Fatalf("config %d job %s: state %s (err %s)", ci, st.ID, st.State, st.Error)
			}
			got = append(got, fingerprint(t, s, st.ID))
		}
		if ci == 0 {
			want = got
			if s.BatchReport() != nil {
				t.Fatal("BatchReport non-nil with batching disabled")
			}
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("config %d request %d result diverged:\n  want %s\n  got  %s", ci, i, want[i], got[i])
			}
		}
	}
}

// TestBatchAmortizationBeatsUnbatched checks the perf claim end to end at
// the serving layer: on a cold-model small-input trace, batching cuts the
// total charged inference seconds against the same trace unbatched,
// because init/compile/finalize are paid per dispatch instead of per
// request.
func TestBatchAmortizationBeatsUnbatched(t *testing.T) {
	trace := []string{"2PV7", "2PV7", "2PV7", "2PV7"}
	charged := func(cfg Config) float64 {
		s := newTestServer(t, cfg)
		statuses := runBatchTrace(t, s, trace)
		var sum float64
		for _, st := range statuses {
			if st.State != "done" {
				t.Fatalf("job %s: state %s (err %s)", st.ID, st.State, st.Error)
			}
			sum += st.ChargedInferenceSeconds
		}
		return sum
	}
	unbatched := charged(Config{Threads: 4, MSAWorkers: 1, GPUWorkers: 1, ColdModel: true})
	batched := charged(Config{Threads: 4, MSAWorkers: 1, GPUWorkers: 1, ColdModel: true,
		Batch: BatchConfig{Enabled: true}})
	if batched >= unbatched {
		t.Fatalf("batched charge %.1fs not below unbatched %.1fs", batched, unbatched)
	}
	// Four identical small requests share one dispatch: the fixed costs
	// are paid once instead of four times, so the saving is substantial,
	// not marginal.
	if batched > 0.6*unbatched {
		t.Errorf("batched charge %.1fs saved too little vs unbatched %.1fs", batched, unbatched)
	}
}

// TestBatchMetricsSurface checks the operational counters: dispatch and
// compile-cache counters land in the registry and the metrics snapshot
// carries the compile-cache stats block.
func TestBatchMetricsSurface(t *testing.T) {
	s := newTestServer(t, Config{
		Threads: 4, MSAWorkers: 1, GPUWorkers: 1,
		ColdModel: true,
		Batch:     BatchConfig{Enabled: true, MaxBatch: 2},
	})
	statuses := runBatchTrace(t, s, batchTrace())
	for _, st := range statuses {
		if st.State != "done" {
			t.Fatalf("job %s: state %s", st.ID, st.State)
		}
	}
	snap := s.MetricsSnapshot()
	if snap.CompileCache == nil {
		t.Fatal("metrics snapshot missing compile_cache block")
	}
	rep := s.BatchReport()
	checks := map[string]int64{
		"batches_dispatched":   int64(rep.Batches),
		"batched_jobs":         int64(rep.BatchedJobs),
		"compile_cache_misses": int64(rep.CompileCache.Misses),
		"compile_cache_hits":   int64(rep.CompileCache.Hits),
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if rep.MeanBatchSize < 1 || rep.MeanBatchSize > 2 {
		t.Errorf("mean batch size %.2f outside [1,2] with MaxBatch 2", rep.MeanBatchSize)
	}
	if rep.OverheadFraction <= 0 || rep.OverheadFraction >= 1 {
		t.Errorf("overhead fraction %.3f out of range", rep.OverheadFraction)
	}
	for _, st := range statuses {
		if st.BatchID == "" || st.BatchSize < 1 || st.BucketTokens < 1 {
			t.Errorf("job %s missing batch attribution: %+v", st.ID, st)
		}
	}
	_ = fmt.Sprintf("%v", rep) // keep fmt for debugging ease
}
