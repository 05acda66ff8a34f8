// Package batch implements the shape-bucketing policy behind cross-request
// GPU batching (DESIGN §14). XLA compiles one executable per tensor shape,
// so a serving tier that dispatched every request at its exact token count
// would compile per distinct input and could never coalesce two requests
// into one device launch. The policy here pads token counts up into a small
// configurable set of buckets: requests in the same bucket share a compiled
// graph and can ride the same batched dispatch, at the price of padding
// waste (computed tokens that belong to no request). The package also
// carries the padding-waste report row and the deterministic batch-
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
