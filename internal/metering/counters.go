package metering

import "sync"

// Registry is a concurrency-safe set of named monotonic counters for
// long-running processes — the serving subsystem's operational metrics
// (requests admitted/shed/completed, stage entries, cache traffic). Where
// Event/Accumulator instrument one run of the workload for the machine
// models, a Registry aggregates across requests for the /metrics endpoint
// of a server that never exits.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
	}
}

// Add increments the named counter by delta, creating it at zero first.
// A nil registry discards the update, so instrumented code stays
// unconditional (the Nop convention of this package).
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Get returns the named counter's value (0 if absent or nil registry).
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// SetGauge sets the named gauge to value. Unlike counters, gauges move in
// both directions — they report current state (live pool workers, queue
// depth) rather than accumulated traffic. A nil registry discards the
// update.
func (r *Registry) SetGauge(name string, value int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = value
	r.mu.Unlock()
}

// Gauges returns a copy of all gauges.
func (r *Registry) Gauges() map[string]int64 {
	out := make(map[string]int64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.gauges {
		out[k] = v
	}
	return out
}

// Snapshot returns a copy of all counters.
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}
