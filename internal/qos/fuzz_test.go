package qos

import (
	"testing"
)

// FuzzTokenBucket drives a bucket with an arbitrary op tape and asserts
// the level invariant: 0 <= tokens <= burst at every step, regardless of
// out-of-order advances, oversized takes, or degenerate parameters.
func FuzzTokenBucket(f *testing.F) {
	f.Add(uint64(100), uint64(400), []byte{0x01, 0x42, 0x81, 0x10, 0x02})
	f.Add(uint64(0), uint64(0), []byte{0xff, 0x00, 0x7f})
	f.Add(uint64(7), uint64(3), []byte{0x80, 0x40, 0xc0, 0x20})
	f.Fuzz(func(t *testing.T, rate, burst uint64, tape []byte) {
		b := NewTokenBucket(float64(rate%10000), float64(burst%100000))
		vt := 0.0
		for _, op := range tape {
			arg := float64(op & 0x3f)
			if op&0x80 != 0 {
				// Advance: alternate between forward and (clamped)
				// backward jumps.
				if op&0x40 != 0 {
					vt += arg / 4
					b.AdvanceTo(vt)
				} else {
					b.AdvanceTo(vt - arg) // must be a no-op
				}
			} else {
				b.Take(arg * 37)
			}
			if b.rate > 0 {
				lv := b.Level()
				if lv < 0 || lv > b.burst {
					t.Fatalf("level %g outside [0, %g]", lv, b.burst)
				}
			}
		}
	})
}

// FuzzWFQ drives the weighted-fair queue with an arbitrary push/pop tape
// and asserts the DRR invariants after every op: no negative deficit, the
// size bookkeeping consistent, conservation of admitted work (everything
// pushed pops exactly once, per-tenant FIFO order preserved).
func FuzzWFQ(f *testing.F) {
	f.Add([]byte{0x10, 0x51, 0x92, 0xd3, 0x00, 0x00, 0x00})
	f.Add([]byte{0x3f, 0x7f, 0xbf, 0xff, 0x00, 0x01, 0x00, 0x00})
	f.Add([]byte{0x20, 0x00, 0x61, 0x00, 0xa2, 0x00, 0xe3, 0x00})
	f.Fuzz(func(t *testing.T, tape []byte) {
		names := []string{"a", "b", "c", "d"}
		wts := map[string]float64{"a": 1, "b": 2, "c": 5, "d": 0.5}
		w := NewWFQ[int](64, weights(wts))
		pushed := map[string][]int{}
		popped := map[string][]int{}
		next := 0
		pending := 0
		for _, op := range tape {
			if op&0x0f == 0 && pending > 0 {
				// Pop (value encodes tenant: next*4+tenantIdx).
				v, _, ok := w.Pop()
				if !ok {
					t.Fatal("pop failed with items pending")
				}
				tenant := names[v%4]
				popped[tenant] = append(popped[tenant], v)
				pending--
			} else {
				tenant := names[int(op>>6)&3]
				cost := float64(op&0x3f) * 17 // includes 0: min-clamp path
				w.Push(tenant, cost, next*4+int(op>>6)&3)
				pushed[tenant] = append(pushed[tenant], next*4+int(op>>6)&3)
				next++
				pending++
			}
			w.checkInvariants()
		}
		// Drain and check conservation + per-tenant FIFO.
		w.Close()
		for {
			v, _, ok := w.Pop()
			if !ok {
				break
			}
			tenant := names[v%4]
			popped[tenant] = append(popped[tenant], v)
			pending--
		}
		if pending != 0 {
			t.Fatalf("conservation broken: %d items unaccounted", pending)
		}
		for tenant, in := range pushed {
			out := popped[tenant]
			if len(in) != len(out) {
				t.Fatalf("tenant %s: pushed %d, popped %d", tenant, len(in), len(out))
			}
			for i := range in {
				if in[i] != out[i] {
					t.Fatalf("tenant %s: FIFO broken at %d (%d vs %d)", tenant, i, in[i], out[i])
				}
			}
		}
	})
}
