package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunCtxCompletesLikeRun(t *testing.T) {
	p := New(4)
	defer p.Close()
	out := make([]int, 100)
	err := p.RunCtx(context.Background(), len(out), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = i * i
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestRunCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []*Pool{nil, New(1), New(4)} {
		var ran atomic.Int32
		err := p.RunCtx(ctx, 64, func(_, _, _ int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v", p.Workers(), err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d shards ran after pre-cancel", p.Workers(), ran.Load())
		}
		p.Close()
	}
}

// TestRunCtxCancelMidScanStopsWithinOneShard pins the promptness contract:
// with the pool's only helper parked inside another Run, a RunCtx call
// queues its second shard, executes shard 0 inline — which cancels the
// context — and must then skip the queued shard instead of executing it.
// Total work after cancellation: zero; total shards executed: exactly one.
func TestRunCtxCancelMidScanStopsWithinOneShard(t *testing.T) {
	p := New(2) // caller + 1 helper
	defer p.Close()

	gate := make(chan struct{})
	occupied := make(chan struct{}, 2)
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		// Both shards of this Run block on the gate: the helper goroutine
		// on shard 1, this goroutine on shard 0. The helper is now busy,
		// so the next RunCtx's non-caller shard stays queued.
		p.Run(2, func(_, _, _ int) {
			occupied <- struct{}{}
			<-gate
		})
	}()
	<-occupied
	<-occupied

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int32
	err := p.RunCtx(ctx, 2, func(shard, _, _ int) {
		executed.Add(1)
		if shard == 0 {
			cancel() // cancelled mid-scan, while shard 1 is still queued
		}
	})
	close(gate)
	<-blockerDone

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := executed.Load(); got != 1 {
		t.Fatalf("%d shards executed after mid-scan cancel, want exactly 1", got)
	}
}
