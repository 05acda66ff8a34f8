package resilience

import (
	"math"
	"sort"
	"sync"
	"time"
)

// HedgeConfig tunes latency hedging: the owner tracks the wall-clock
// latency of every completed unit of work (a chain search in serve, a
// routed request in cluster); once MinSamples are in, a unit still running
// after Factor × the Percentile-th latency gets a concurrent backup
// attempt, and the first finisher wins. Hedging is latency-only: both
// attempts compute the same deterministic result.
type HedgeConfig struct {
	Enabled bool
	// Percentile of observed latencies that anchors the budget (default
	// 95).
	Percentile float64
	// Factor multiplies the percentile latency into the hedge delay
	// (default 2).
	Factor float64
	// MinSamples is how many latencies must be observed before hedging
	// arms (default 8) — with no history, there is no straggler
	// definition.
	MinSamples int
}

// hedgeWindow bounds the sample history: past it, the estimator keeps the
// newer half, so a long-lived server tracks current behavior rather than
// averaging over its whole lifetime.
const hedgeWindow = 4096

// HedgeEstimator accumulates latencies and derives the hedge delay. A nil
// estimator is valid and means "hedging disabled": Observe drops the
// sample and Budget is 0, so call sites stay unconditional.
type HedgeEstimator struct {
	cfg HedgeConfig

	mu      sync.Mutex
	samples []time.Duration
}

// NewHedgeEstimator builds an estimator with the config's defaults filled
// in, or returns nil when hedging is not enabled.
func NewHedgeEstimator(cfg HedgeConfig) *HedgeEstimator {
	if !cfg.Enabled {
		return nil
	}
	if cfg.Percentile <= 0 || cfg.Percentile > 100 {
		cfg.Percentile = 95
	}
	if cfg.Factor <= 0 {
		cfg.Factor = 2
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 8
	}
	return &HedgeEstimator{cfg: cfg}
}

// Observe records one completed unit's wall-clock latency.
func (h *HedgeEstimator) Observe(wall time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.samples = append(h.samples, wall)
	if len(h.samples) > hedgeWindow {
		h.samples = append([]time.Duration(nil), h.samples[len(h.samples)-hedgeWindow/2:]...)
	}
	h.mu.Unlock()
}

// Budget returns the hedge delay — Factor × the Percentile-th observed
// latency (nearest rank) — or 0 while fewer than MinSamples are in.
func (h *HedgeEstimator) Budget() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n < h.cfg.MinSamples {
		return 0
	}
	sorted := append([]time.Duration(nil), h.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(h.cfg.Percentile/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	if d := time.Duration(h.cfg.Factor * float64(sorted[idx])); d > 0 {
		return d
	}
	return 0
}
