package core

import (
	"testing"

	"afsysbench/internal/platform"
)

func batchNames() []string {
	return []string{"2PV7", "7RCE", "1YY9", "2PV7", "7RCE", "1YY9"}
}

func TestRunBatchSequentialBaseline(t *testing.T) {
	s := suite(t)
	res, err := s.RunBatch(batchNames(), platform.Server(), BatchOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 6 {
		t.Fatalf("items = %d", len(res.Items))
	}
	// Sequential makespan equals the sum of all phases.
	var sum float64
	for _, it := range res.Items {
		sum += it.MSASeconds + it.InferenceSeconds
		if it.Finish <= it.Start {
			t.Errorf("%s has non-positive span", it.Sample)
		}
	}
	if diff := res.Makespan - sum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("sequential makespan %.1f != phase sum %.1f", res.Makespan, sum)
	}
	if res.Makespan <= 0 {
		t.Error("makespan not positive")
	}
}

func TestRunBatchPipelinedBeatsSequential(t *testing.T) {
	s := suite(t)
	mach := platform.Server()
	seq, err := s.RunBatch(batchNames(), mach, BatchOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := s.RunBatch(batchNames(), mach, BatchOptions{Threads: 4, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Makespan >= seq.Makespan {
		t.Errorf("pipelined %.0fs not faster than sequential %.0fs", pipe.Makespan, seq.Makespan)
	}
	// The pipeline cannot beat its slower stage.
	floor := pipe.CPUBusy
	if pipe.GPUBusy > floor {
		floor = pipe.GPUBusy
	}
	if pipe.Makespan < floor-1e-6 {
		t.Errorf("pipelined makespan %.0f below stage floor %.0f", pipe.Makespan, floor)
	}
}

func TestRunBatchWarmModelCutsInference(t *testing.T) {
	s := suite(t)
	mach := platform.Server()
	cold, err := s.RunBatch(batchNames(), mach, BatchOptions{Threads: 4, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.RunBatch(batchNames(), mach, BatchOptions{Threads: 4, Pipelined: true, WarmModel: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.GPUBusy >= cold.GPUBusy {
		t.Error("warm model must reduce total GPU-stage time")
	}
	// First request still pays the cold cost.
	if warm.Items[0].InferenceSeconds <= warm.Items[1].InferenceSeconds {
		t.Error("first request should be the cold one")
	}
	if warm.Makespan >= cold.Makespan {
		t.Error("warm pipeline must improve makespan")
	}
}

func TestRunBatchSchedulingInvariants(t *testing.T) {
	s := suite(t)
	res, err := s.RunBatch(batchNames(), platform.Desktop(), BatchOptions{Threads: 4, Pipelined: true, WarmModel: true})
	if err != nil {
		t.Fatal(err)
	}
	// Requests start in order, never overlap on the same stage, and the
	// makespan is the last finish.
	for i := 1; i < len(res.Items); i++ {
		if res.Items[i].Start < res.Items[i-1].Start {
			t.Error("MSA stage order violated")
		}
	}
	last := res.Items[len(res.Items)-1]
	if res.Makespan != last.Finish {
		t.Errorf("makespan %.1f != last finish %.1f", res.Makespan, last.Finish)
	}
}

func TestRunBatchWarmRecompilesOnShapeChange(t *testing.T) {
	s := suite(t)
	mach := platform.Server()
	// 2PV7 and 7RCE have different token counts, so with exact shape keys
	// the warm second request must still pay XLA compile; repeating 2PV7
	// third hits the already-compiled shape and pays neither init nor
	// compile.
	warm, err := s.RunBatch([]string{"2PV7", "7RCE", "2PV7"}, mach, BatchOptions{
		Threads: 4, Pipelined: true, WarmModel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Items[1].InferenceSeconds <= warm.Items[2].InferenceSeconds {
		t.Errorf("warm new-shape request (%.1fs) must pay compile the repeated shape (%.1fs) skips",
			warm.Items[1].InferenceSeconds, warm.Items[2].InferenceSeconds)
	}
}

func TestRunBatchErrors(t *testing.T) {
	s := suite(t)
	if _, err := s.RunBatch(nil, platform.Server(), BatchOptions{}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := s.RunBatch([]string{"nope"}, platform.Server(), BatchOptions{}); err == nil {
		t.Error("unknown sample accepted")
	}
}

func TestRunBatch6QNRUsesUpgradedDesktop(t *testing.T) {
	s := suite(t)
	// 6QNR on the stock desktop requires the paper's DRAM-upgrade
	// substitution; the batch path must apply it rather than fail.
	res, err := s.RunBatch([]string{"6QNR"}, platform.Desktop(), BatchOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 {
		t.Fatal("6QNR batch item missing")
	}
}
