package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/msa"
	"afsysbench/internal/platform"
	"afsysbench/internal/resilience"
	"afsysbench/internal/seqdb"
	"afsysbench/internal/simio"
)

// newStreamedResult fakes an MSA result that streamed total bytes of one
// database, for driving streamDatabases directly.
func newStreamedResult(db string, total int64) *msa.Result {
	return &msa.Result{Streamed: map[string]int64{db: total}}
}

func mustFaults(t *testing.T, spec string) resilience.Faults {
	t.Helper()
	fs, err := resilience.ParseFaults(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func countKind(rep resilience.Report, k resilience.Kind) int {
	n := 0
	for _, e := range rep.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestTransientFaultRetriesAndSucceeds(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	clean, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{
		Threads: 4,
		Faults:  mustFaults(t, "transient:uniref_s:2"),
	})
	if err != nil {
		t.Fatalf("transient faults must be absorbed, got %v", err)
	}
	rep := pr.Resilience
	if rep.Retries != 2 || rep.RetrySeconds <= 0 {
		t.Fatalf("retries=%d wait=%.2f, want 2 retries with positive wait", rep.Retries, rep.RetrySeconds)
	}
	if got := countKind(rep, resilience.KindRetry); got != 2 {
		t.Errorf("retry events = %d, want 2", got)
	}
	if rep.Degraded || rep.SingleSequence || len(rep.DroppedDBs) != 0 {
		t.Errorf("pure retries must not degrade: %s", rep.String())
	}
	// Backoff waits are charged on top of the clean phase time; the MSA
	// output itself is untouched.
	if want := clean.MSASeconds + rep.RetrySeconds; !approxEq(pr.MSASeconds, want, 1e-9) {
		t.Errorf("MSASeconds = %.4f, want clean %.4f + wait %.4f", pr.MSASeconds, clean.MSASeconds, rep.RetrySeconds)
	}
	if pr.MSAData.Features.Rows != clean.MSAData.Features.Rows {
		t.Error("transient faults changed the MSA result")
	}
}

func TestPermanentFaultsDegradeToSingleSequence(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	pr, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{
		Threads: 4,
		Faults:  mustFaults(t, "permanent:*"),
	})
	if err != nil {
		t.Fatalf("permanent faults must degrade, not fail: %v", err)
	}
	rep := pr.Resilience
	if !rep.SingleSequence || !rep.Degraded {
		t.Fatalf("want single-sequence fallback, got %s", rep.String())
	}
	if pr.MSAData.Features.Rows != 1 {
		t.Errorf("single-sequence depth = %d, want 1", pr.MSAData.Features.Rows)
	}
	if pr.MSADiskSeconds != 0 {
		t.Errorf("nothing should stream, disk = %.2fs", pr.MSADiskSeconds)
	}
	if countKind(rep, resilience.KindSingleSequence) != 1 {
		t.Error("missing single-sequence event")
	}
	// 2PV7 is protein-only: both protein databases drop, nothing else.
	if len(rep.DroppedDBs) != 2 {
		t.Errorf("dropped = %v, want the two protein databases", rep.DroppedDBs)
	}
	// Inference still prices the run.
	if pr.Inference.Total() <= 0 {
		t.Error("inference did not run")
	}
}

func TestPermanentSingleDBDropsAndContinues(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	pr, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{
		Threads: 4,
		Faults:  mustFaults(t, "permanent:uniref_s"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := pr.Resilience
	if rep.SingleSequence {
		t.Fatal("one dead database must not force single-sequence")
	}
	if len(rep.DroppedDBs) != 1 || rep.DroppedDBs[0] != "uniref_s" {
		t.Fatalf("dropped = %v, want [uniref_s]", rep.DroppedDBs)
	}
	if !rep.Degraded || countKind(rep, resilience.KindDropDB) != 1 {
		t.Errorf("drop not recorded: %s", rep.String())
	}
	if pr.MSAData.Streamed["uniref_s"] != 0 {
		t.Error("dropped database was still scanned")
	}
	if pr.MSAData.Streamed["mgnify_s"] == 0 {
		t.Error("surviving database was not scanned")
	}
	if pr.MSAData.Features.Rows <= 1 {
		t.Error("reduced profile should still recruit an alignment")
	}
}

func TestTransientExhaustionDropsDB(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	pr, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{
		Threads: 4,
		Faults:  mustFaults(t, "transient:mgnify_s:10"), // outlasts MaxAttempts=4
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := pr.Resilience
	if len(rep.DroppedDBs) != 1 || rep.DroppedDBs[0] != "mgnify_s" {
		t.Fatalf("dropped = %v, want [mgnify_s]", rep.DroppedDBs)
	}
	// Attempts 1..3 back off and retry; attempt 4 gives up.
	if rep.Retries != 3 {
		t.Errorf("retries = %d, want 3", rep.Retries)
	}
	var drop resilience.Event
	for _, e := range rep.Events {
		if e.Kind == resilience.KindDropDB {
			drop = e
		}
	}
	if !strings.Contains(drop.Detail, "after 4 attempts") {
		t.Errorf("drop event detail = %q, want attempt accounting", drop.Detail)
	}
}

func TestResilienceDeterministicAcrossThreadsAndRuns(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	faults := "transient:uniref_s:2,permanent:mgnify_s,stall:30"
	var reports []string
	for _, th := range []int{1, 4, 8} {
		pr, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{
			Threads: th,
			Faults:  mustFaults(t, faults),
		})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, fmt.Sprintf("%+v", pr.Resilience))
	}
	if reports[0] != reports[1] || reports[1] != reports[2] {
		t.Errorf("resilience report varies with worker count:\n%s\n%s\n%s", reports[0], reports[1], reports[2])
	}
	// Repeat the same run: the full result must be identical, down to the
	// disk counters and every event byte.
	run := func() string {
		pr, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{
			Threads: 4,
			Faults:  mustFaults(t, faults),
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("msa=%.9f cpu=%.9f disk=%.9f stats=%+v inf=%.9f rep=%+v",
			pr.MSASeconds, pr.MSACPUSeconds, pr.MSADiskSeconds, pr.DiskStats, pr.Inference.Total(), pr.Resilience)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("repeat run differs:\n%s\n%s", a, b)
	}
}

func TestStageBudgetDegradesMSA(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	// A budget far below any real plan walks the whole ladder: every
	// database sheds, the run lands on single-sequence features, and the
	// remaining floor is recorded as an overrun rather than an error.
	pr, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{
		Threads: 4,
		Budget:  resilience.StageBudget{MSASeconds: 1e-7},
	})
	if err != nil {
		t.Fatalf("budget exhaustion must degrade, not fail: %v", err)
	}
	rep := pr.Resilience
	if !rep.SingleSequence || len(rep.DroppedDBs) != 2 {
		t.Fatalf("want full ladder walk, got %s", rep.String())
	}
	if countKind(rep, resilience.KindBudgetDrop) != 2 {
		t.Errorf("budget drops = %d, want 2", countKind(rep, resilience.KindBudgetDrop))
	}
	if countKind(rep, resilience.KindBudgetOverrun) != 1 {
		t.Error("single-sequence floor above budget must record an overrun")
	}
	if pr.MSAData.Features.Rows != 1 {
		t.Errorf("depth = %d, want 1", pr.MSAData.Features.Rows)
	}
}

func TestStageBudgetShedsLargestStreamFirst(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	clean, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Budget just below the full plan: one drop must suffice, and the
	// victim is the database with the most streamed bytes (uniref_s, 60
	// GiB vs mgnify_s's 25).
	pr, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{
		Threads: 4,
		Budget:  resilience.StageBudget{MSASeconds: clean.MSASeconds * 0.98},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := pr.Resilience
	if len(rep.DroppedDBs) == 0 || rep.DroppedDBs[0] != "uniref_s" {
		t.Fatalf("dropped = %v, want uniref_s shed first", rep.DroppedDBs)
	}
	if rep.SingleSequence {
		t.Error("a near-miss budget should not collapse to single-sequence")
	}
	if pr.MSASeconds > clean.MSASeconds*0.98 {
		t.Errorf("degraded plan %.1fs still over the %.1fs budget", pr.MSASeconds, clean.MSASeconds*0.98)
	}
}

func TestInferenceBudgetTimesOut(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	_, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{
		Threads: 4,
		Budget:  resilience.StageBudget{InferenceSeconds: 0.01},
	})
	var timeout resilience.ErrStageTimeout
	if !errors.As(err, &timeout) {
		t.Fatalf("want ErrStageTimeout, got %v", err)
	}
	if timeout.Stage != "inference" || timeout.NeedSeconds <= timeout.BudgetSeconds {
		t.Errorf("timeout = %+v", timeout)
	}
}

func TestMemSpikeCeilingFallsBackToSingleSequence(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	pr, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{
		Threads: 4,
		Faults:  mustFaults(t, "memspike:100000:0"), // far past 64 GiB DRAM
	})
	if err != nil {
		t.Fatalf("memory ceiling must degrade, not fail: %v", err)
	}
	rep := pr.Resilience
	if countKind(rep, resilience.KindMemCeiling) != 1 {
		t.Fatalf("missing mem-ceiling event: %s", rep.String())
	}
	if !rep.SingleSequence || pr.MSAData.Features.Rows != 1 {
		t.Errorf("ceiling must abandon the deep MSA: %s", rep.String())
	}
}

func TestMemSpikeSurvivableSqueezesCache(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	clean, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{
		Threads: 4,
		Faults:  mustFaults(t, "memspike:20:0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := pr.Resilience
	if countKind(rep, resilience.KindMemSpike) != 1 || rep.SingleSequence {
		t.Fatalf("want one survivable spike, got %s", rep.String())
	}
	if pr.MSADiskSeconds < clean.MSADiskSeconds {
		t.Errorf("squeezed cache should not stream less: %.2f vs %.2f", pr.MSADiskSeconds, clean.MSADiskSeconds)
	}
	if pr.MSAData.Features.Rows != clean.MSAData.Features.Rows {
		t.Error("a survivable spike must not change the MSA result")
	}
}

func TestStallExtendsCriticalPath(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	clean, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := s.RunPipeline(in, platform.Desktop(), PipelineOptions{
		Threads: 4,
		Faults:  mustFaults(t, "stall:1000"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if countKind(pr.Resilience, resilience.KindStall) != 1 {
		t.Fatal("missing stall event")
	}
	if want := clean.MSACPUSeconds + 1000; pr.MSASeconds < want && pr.MSASeconds < clean.MSADiskSeconds {
		t.Errorf("stall not on the critical path: %.1fs", pr.MSASeconds)
	}
	if pr.MSASeconds <= clean.MSASeconds {
		t.Errorf("stalled run %.1fs not slower than clean %.1fs", pr.MSASeconds, clean.MSASeconds)
	}
	if pr.Resilience.Degraded {
		t.Error("a stall is absorbed, not a degradation")
	}
}

func TestPipelineCtxCancellation(t *testing.T) {
	s := suite(t)
	in, _ := inputs.ByName("2PV7")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.RunPipelineCtx(ctx, in, platform.Desktop(), PipelineOptions{Threads: 4})
	var timeout resilience.ErrStageTimeout
	if !errors.As(err, &timeout) {
		t.Fatalf("want ErrStageTimeout, got %v", err)
	}
	if timeout.Stage != "msa" {
		t.Errorf("stage = %q, want msa (first stage to observe the context)", timeout.Stage)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("context cause must survive the typed wrapper")
	}
}

func TestStreamDatabasesReplaysPartialPass(t *testing.T) {
	// Regression: the replay used to truncate to whole passes, charging
	// zero disk seconds for any remainder below one modeled database size.
	s := suite(t)
	db := s.DBs.Protein[0]
	mach := platform.Desktop()
	stream := func(total int64) float64 {
		// Reserve most of DRAM so re-read passes cannot hide in the cache.
		storage := simio.New(mach, 60<<30)
		msaRes := newStreamedResult(db.Name, total)
		var rep resilience.Report
		disk, ceiling, err := s.streamDatabases(context.Background(), storage, msaRes, []*seqdb.DB{db}, mach, nil, &rep)
		if err != nil || ceiling {
			t.Fatalf("stream: disk=%v ceiling=%v err=%v", disk, ceiling, err)
		}
		return disk
	}
	half := stream(db.ModeledBytes() / 2)
	if half <= 0 {
		t.Fatal("sub-pass remainder charged zero disk time")
	}
	one := stream(db.ModeledBytes())
	oneAndHalf := stream(db.ModeledBytes() + db.ModeledBytes()/2)
	if oneAndHalf <= one {
		t.Errorf("1.5 passes (%.2fs) must cost more than 1.0 (%.2fs)", oneAndHalf, one)
	}
}

func TestStreamPassMidStreamDropIsDefensive(t *testing.T) {
	// Open-time probing normally consumes fault budgets, but a database
	// can still go dark mid-stream (e.g. a caller-owned storage hook);
	// the pass must drop it after the retry budget instead of spinning.
	s := suite(t)
	db := s.DBs.Protein[0]
	mach := platform.Desktop()
	storage := simio.New(mach, 8<<30)
	inj := resilience.NewInjector(mustFaults(t, "transient:"+db.Name+":10"), s.resilienceSource("test", 0))
	storage.SetFaultFunc(func(name string, attempt int, _ int64) error {
		return inj.ReadFault(name, attempt)
	})
	var rep resilience.Report
	msaRes := newStreamedResult(db.Name, db.ModeledBytes())
	disk, ceiling, err := s.streamDatabases(context.Background(), storage, msaRes, []*seqdb.DB{db}, mach, inj, &rep)
	if err != nil || ceiling {
		t.Fatal(err)
	}
	if disk != 0 {
		t.Errorf("failed stream charged %.2fs of disk", disk)
	}
	if len(rep.DroppedDBs) != 1 || rep.Retries != resilience.MaxAttempts-1 {
		t.Errorf("defensive drop accounting wrong: %s", rep.String())
	}
	if countKind(rep, resilience.KindDropDB) != 1 {
		t.Error("missing drop event")
	}
}

func approxEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
