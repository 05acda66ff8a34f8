package metering

import (
	"sync"
	"testing"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Add("a", 2)
	r.Add("a", 3)
	r.Add("b", 1)
	if got := r.Get("a"); got != 5 {
		t.Fatalf("a = %d, want 5", got)
	}
	if got := r.Get("missing"); got != 0 {
		t.Fatalf("missing = %d, want 0", got)
	}
	snap := r.Snapshot()
	r.Add("a", 1)
	if snap["a"] != 5 {
		t.Fatal("snapshot not isolated from later writes")
	}
	if len(snap) != 2 || snap["b"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Add("x", 1)         // must not panic
	r.SetGauge("live", 3) // must not panic
	if r.Get("x") != 0 || len(r.Snapshot()) != 0 {
		t.Fatal("nil registry must read as empty")
	}
	if len(r.Gauges()) != 0 {
		t.Fatal("nil registry gauges must read as empty")
	}
}

func TestRegistryGauges(t *testing.T) {
	r := NewRegistry()
	r.SetGauge("live", 4)
	r.SetGauge("live", 2) // gauges move both directions
	snap := r.Gauges()
	if got := snap["live"]; got != 2 || len(snap) != 1 {
		t.Fatalf("gauges = %v, want live 2 alone", snap)
	}
	r.SetGauge("live", 9)
	if snap["live"] != 2 {
		t.Fatal("gauge snapshot not isolated from later writes")
	}
	// Gauges and counters are separate namespaces.
	r.Add("live", 1)
	if r.Get("live") != 1 || r.Gauges()["live"] != 9 {
		t.Fatal("gauge and counter namespaces collided")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Get("n"); got != 8000 {
		t.Fatalf("n = %d, want 8000", got)
	}
}
