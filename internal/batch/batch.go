// Package batch implements the shape-bucketing policy behind cross-request
// GPU batching (DESIGN §14). XLA compiles one executable per tensor shape,
// so a serving tier that dispatched every request at its exact token count
// would compile per distinct input and could never coalesce two requests
// into one device launch. The policy here pads token counts up into a small
// configurable set of buckets: requests in the same bucket share a compiled
// graph and can ride the same batched dispatch, at the price of padding
// waste (computed tokens that belong to no request). The package also
// carries the padding-waste accounting and the deterministic batch-
// composition plan that the serving dispatcher implements incrementally —
// composition is a pure function of the arrival order and the policy,
// never of worker timing.
package batch

import "sort"

// DefaultBuckets is the stock pad-boundary set: fine steps where the
// Table II samples live (128–1024 tokens, where compile overhead dominates
// and padding percentage-wise hurts most) and coarse steps above. Tokens
// beyond the last bucket fall out of the policy and run at their exact
// size (their own implicit bucket).
func DefaultBuckets() []int {
	return []int{128, 256, 384, 512, 768, 1024, 1536, 2048}
}

// Policy maps token counts to pad buckets. The zero value has no buckets:
// every token count is its own bucket (exact-shape keying, no padding).
type Policy struct {
	buckets []int // sorted ascending, positive, unique
}

// NewPolicy builds a policy from pad boundaries. Non-positive entries are
// dropped and duplicates collapsed; the input slice is not retained. An
// empty (or fully dropped) list yields the exact-shape zero policy.
func NewPolicy(buckets []int) Policy {
	cleaned := make([]int, 0, len(buckets))
	for _, b := range buckets {
		if b > 0 {
			cleaned = append(cleaned, b)
		}
	}
	sort.Ints(cleaned)
	uniq := cleaned[:0]
	for i, b := range cleaned {
		if i == 0 || b != cleaned[i-1] {
			uniq = append(uniq, b)
		}
	}
	return Policy{buckets: uniq}
}

// Default returns the policy over DefaultBuckets.
func Default() Policy { return NewPolicy(DefaultBuckets()) }

// Buckets returns a copy of the pad boundaries (nil for the zero policy).
func (p Policy) Buckets() []int {
	if len(p.buckets) == 0 {
		return nil
	}
	out := make([]int, len(p.buckets))
	copy(out, p.buckets)
	return out
}

// BucketFor returns the smallest bucket that holds tokens, and false when
// tokens exceeds every bucket (or the policy has none) — the caller then
// uses the exact size as an implicit overflow bucket.
func (p Policy) BucketFor(tokens int) (int, bool) {
	i := sort.SearchInts(p.buckets, tokens)
	if i == len(p.buckets) {
		return 0, false
	}
	return p.buckets[i], true
}

// PadTo returns the padded token count for a request: its bucket, or the
// exact count when it overflows the policy.
func (p Policy) PadTo(tokens int) int {
	if b, ok := p.BucketFor(tokens); ok {
		return b
	}
	return tokens
}

// WastePct returns the padding waste of running tokens at its padded size:
// the fraction of dispatched tokens that belong to no request.
func (p Policy) WastePct(tokens int) float64 {
	padded := p.PadTo(tokens)
	if padded <= 0 {
		return 0
	}
	return 100 * float64(padded-tokens) / float64(padded)
}

// Item is one arrival in a batch-composition plan: its token count and the
// lane it must dispatch on (requests on different machines or thread
// settings never share a batch; the serving layer encodes that in Lane).
type Item struct {
	Tokens int
	Lane   string
}

// Plan groups an arrival sequence into batches: maximal runs of
// consecutive arrivals sharing a (bucket, lane), split when capFor(bucket)
// members accumulate. It returns the batches in dispatch order as index
// slices into items. This is the specification the serving dispatcher
// implements incrementally — for a fully queued arrival stream the live
// composition equals Plan's, which is what the determinism tests pin.
// capFor may be nil (no cap); caps below 1 are treated as 1.
func (p Policy) Plan(items []Item, capFor func(bucket int) int) [][]int {
	var out [][]int
	var open []int
	openBucket, openLane := 0, ""
	seal := func() {
		if len(open) > 0 {
			out = append(out, open)
			open = nil
		}
	}
	for i, it := range items {
		bucket := p.PadTo(it.Tokens)
		if len(open) > 0 && (bucket != openBucket || it.Lane != openLane) {
			seal()
		}
		open = append(open, i)
		openBucket, openLane = bucket, it.Lane
		limit := 0
		if capFor != nil {
			limit = capFor(bucket)
			if limit < 1 {
				limit = 1
			}
		}
		if limit > 0 && len(open) >= limit {
			seal()
		}
	}
	seal()
	return out
}

// BucketStats is one bucket's row of the padding-waste and compile-sharing
// report.
type BucketStats struct {
	// Bucket is the padded token count (an overflow request reports its
	// exact size here).
	Bucket int `json:"bucket"`
	// Requests counts members dispatched in this bucket; Batches the
	// dispatches that carried them.
	Requests int `json:"requests"`
	Batches  int `json:"batches"`
	// ActualTokens/PaddedTokens sum member token counts before and after
	// padding.
	ActualTokens int64 `json:"actual_tokens"`
	PaddedTokens int64 `json:"padded_tokens"`
	// CompileMisses counts dispatches that paid the bucket's XLA compile
	// (the compiled-graph cache missed); CompileHits the dispatches that
	// reused it.
	CompileMisses int64 `json:"compile_misses"`
	CompileHits   int64 `json:"compile_hits"`
}

// WastePct is the bucket's padding waste: padded-but-unowned tokens over
// dispatched tokens.
func (b BucketStats) WastePct() float64 {
	if b.PaddedTokens <= 0 {
		return 0
	}
	return 100 * float64(b.PaddedTokens-b.ActualTokens) / float64(b.PaddedTokens)
}

// MeanBatchSize is the bucket's average members per dispatch.
func (b BucketStats) MeanBatchSize() float64 {
	if b.Batches == 0 {
		return 0
	}
	return float64(b.Requests) / float64(b.Batches)
}

// Meter accumulates per-bucket batching accounting. Not safe for
// concurrent use — callers (the serving dispatcher) serialize around it.
type Meter struct {
	perBucket map[int]*BucketStats
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{perBucket: make(map[int]*BucketStats)} }

func (m *Meter) row(bucket int) *BucketStats {
	r := m.perBucket[bucket]
	if r == nil {
		r = &BucketStats{Bucket: bucket}
		m.perBucket[bucket] = r
	}
	return r
}

// ObserveJob records one member dispatched at tokens padded into bucket.
func (m *Meter) ObserveJob(bucket, tokens int) {
	r := m.row(bucket)
	r.Requests++
	r.ActualTokens += int64(tokens)
	r.PaddedTokens += int64(bucket)
}

// ObserveBatch records one dispatched batch in the bucket and whether it
// paid the bucket's compile (a compiled-graph cache miss).
func (m *Meter) ObserveBatch(bucket int, compileMiss bool) {
	r := m.row(bucket)
	r.Batches++
	if compileMiss {
		r.CompileMisses++
	} else {
		r.CompileHits++
	}
}

// Snapshot returns the per-bucket rows sorted by bucket.
func (m *Meter) Snapshot() []BucketStats {
	out := make([]BucketStats, 0, len(m.perBucket))
	for _, r := range m.perBucket {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bucket < out[j].Bucket })
	return out
}

// Totals returns the meter-wide member count and token sums.
func (m *Meter) Totals() (requests int, actual, padded int64) {
	for _, r := range m.perBucket {
		requests += r.Requests
		actual += r.ActualTokens
		padded += r.PaddedTokens
	}
	return
}
