package qos

import (
	"sync"
	"testing"
)

// checkInvariants panics on a broken internal invariant; the WFQ tests and
// the fuzz target call it between operations.
func (w *WFQ[T]) checkInvariants() {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := 0
	for t, q := range w.queues {
		if q.deficit < 0 {
			panic("qos: negative DRR deficit for tenant " + t)
		}
		if q.backlog != (len(q.items) > 0) {
			panic("qos: backlog flag out of sync for tenant " + t)
		}
		total += len(q.items)
	}
	if total != w.size {
		panic("qos: WFQ size out of sync")
	}
}

func weights(m map[string]float64) func(string) float64 {
	return func(t string) float64 { return m[t] }
}

// TestWFQWeightedShare: with both tenants permanently backlogged and equal
// item costs, dequeued counts converge to the weight ratio.
func TestWFQWeightedShare(t *testing.T) {
	w := NewWFQ[string](100, weights(map[string]float64{"heavy": 3, "light": 1}))
	for i := 0; i < 400; i++ {
		w.Push("heavy", 100, "heavy")
		w.Push("light", 100, "light")
	}
	got := map[string]int{}
	// Pop while both tenants stay backlogged.
	for i := 0; i < 400; i++ {
		v, seq, ok := w.Pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		if seq != i {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
		got[v]++
		w.checkInvariants()
	}
	if got["heavy"] != 300 || got["light"] != 100 {
		t.Fatalf("share = %v, want 3:1 over 400 pops", got)
	}
}

// TestWFQCostCharging: a tenant with 4× larger items gets ~4× fewer items
// through per round — fairness is in tokens, not request counts.
func TestWFQCostCharging(t *testing.T) {
	w := NewWFQ[string](100, nil) // equal weights
	for i := 0; i < 80; i++ {
		w.Push("big", 400, "big")
		w.Push("small", 100, "small")
	}
	counts := map[string]int{}
	for i := 0; i < 50; i++ {
		v, _, ok := w.Pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		counts[v]++
		w.checkInvariants()
	}
	// In steady state: per 5 pops, 1 big (400 tokens) and 4 small (400
	// tokens). Allow slack for the startup transient.
	if counts["small"] < 3*counts["big"] {
		t.Fatalf("token fairness broken: %v (small should see ~4x the items)", counts)
	}
}

// TestWFQPerTenantFIFO: items of one tenant come out in push order.
func TestWFQPerTenantFIFO(t *testing.T) {
	w := NewWFQ[int](256, nil)
	for i := 0; i < 100; i++ {
		w.Push("a", float64(1+i%7*100), i)
		w.Push("b", 50, 1000+i)
	}
	lastA, lastB := -1, 999
	for {
		if w.Len() == 0 {
			break
		}
		v, _, ok := w.Pop()
		if !ok {
			break
		}
		if v < 1000 {
			if v <= lastA {
				t.Fatalf("tenant a out of order: %d after %d", v, lastA)
			}
			lastA = v
		} else {
			if v <= lastB {
				t.Fatalf("tenant b out of order: %d after %d", v, lastB)
			}
			lastB = v
		}
	}
	if lastA != 99 || lastB != 1099 {
		t.Fatalf("conservation broken: lastA=%d lastB=%d", lastA, lastB)
	}
}

// TestWFQDeterministicOrder: a fixed push history pops in the same order
// regardless of how many consumers race, because sequence numbers are
// allocated under the queue lock.
func TestWFQDeterministicOrder(t *testing.T) {
	build := func() *WFQ[int] {
		w := NewWFQ[int](128, weights(map[string]float64{"x": 2, "y": 1, "z": 1}))
		for i := 0; i < 60; i++ {
			w.Push([]string{"x", "y", "z"}[i%3], float64(50+i%5*77), i)
		}
		return w
	}
	// Serial reference order.
	ref := make([]int, 60)
	w := build()
	for i := 0; i < 60; i++ {
		v, seq, _ := w.Pop()
		ref[seq] = v
	}
	// 8 racing consumers: same (seq -> item) mapping.
	w = build()
	w.Close()
	got := make([]int, 60)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, seq, ok := w.Pop()
				if !ok {
					return
				}
				mu.Lock()
				got[seq] = v
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("dispatch order diverged at seq %d: %d vs %d", i, ref[i], got[i])
		}
	}
}

// TestWFQStarvation: an aggressor with 100x the offered items cannot stop
// the victim's items from flowing at its weight share.
func TestWFQStarvation(t *testing.T) {
	w := NewWFQ[string](256, weights(map[string]float64{"victim": 4, "aggr": 1}))
	for i := 0; i < 2000; i++ {
		w.Push("aggr", 800, "aggr")
	}
	for i := 0; i < 20; i++ {
		w.Push("victim", 200, "victim")
	}
	// The victim's 20 small items must all surface within the first 120
	// pops despite 2000 queued aggressor items.
	victims := 0
	for i := 0; i < 120; i++ {
		v, _, ok := w.Pop()
		if !ok {
			t.Fatal("drained early")
		}
		if v == "victim" {
			victims++
		}
		w.checkInvariants()
	}
	if victims != 20 {
		t.Fatalf("victim got %d of 20 items through in 120 pops (starved)", victims)
	}
}

// TestWFQCloseDrains: Close wakes blocked pops and queued items drain.
func TestWFQCloseDrains(t *testing.T) {
	w := NewWFQ[int](256, nil)
	w.Push("a", 10, 1)
	w.Push("a", 10, 2)
	w.Close()
	if w.Push("a", 10, 3) {
		t.Fatal("push after close accepted")
	}
	seen := 0
	for {
		_, _, ok := w.Pop()
		if !ok {
			break
		}
		seen++
	}
	if seen != 2 {
		t.Fatalf("drained %d items, want 2", seen)
	}
	// A blocked pop on an empty closed queue returns immediately.
	done := make(chan struct{})
	go func() {
		w.Pop()
		close(done)
	}()
	<-done
}
