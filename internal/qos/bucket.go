package qos

// TokenBucket is a deterministic virtual-time token-bucket rate limiter.
// Unlike a wall-clock limiter, refill is driven by the modeled arrival
// times the caller advances it to, so an admission decision is a pure
// function of the arrival trace and the bucket parameters — the property
// every fairness gate in this package depends on. Costs are chain-tokens
// (inputs.Input.TotalResidues), the same unit the WFQ charges, so a
// 5000-token complex draws ~16× the quota of a 300-token monomer.
//
// Not safe for concurrent use; the Controller serializes access.
type TokenBucket struct {
	rate   float64 // refill, tokens per modeled second (<= 0: unlimited)
	burst  float64 // capacity; also the initial level (burst credit)
	tokens float64
	vtime  float64 // virtual time of the last refill
}

// NewTokenBucket builds a bucket refilling at rate tokens per modeled
// second with capacity burst. rate <= 0 means unlimited (Take always
// succeeds); burst <= 0 with a positive rate defaults to four seconds of
// refill. The bucket starts full.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate > 0 && burst <= 0 {
		burst = 4 * rate
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// AdvanceTo refills the bucket up to virtual time t. Time is clamped
// monotonic: an arrival earlier than one already seen refills nothing, so
// an out-of-order trace cannot mint tokens.
func (b *TokenBucket) AdvanceTo(t float64) {
	if t <= b.vtime {
		return
	}
	if b.rate > 0 {
		b.tokens += (t - b.vtime) * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.vtime = t
}

// Take withdraws cost tokens if the full amount is available and reports
// whether it did. There are no partial withdrawals: a request is either
// admitted whole or sheds whole. A cost larger than the burst capacity can
// never succeed on a limited bucket — an intentionally hard edge, so a
// single adversarial mega-complex cannot be smuggled past a tight quota.
func (b *TokenBucket) Take(cost float64) bool {
	if b.rate <= 0 {
		return true
	}
	if cost > b.tokens {
		return false
	}
	b.tokens -= cost
	return true
}

// Level returns the current token level, or -1 for an unlimited bucket.
func (b *TokenBucket) Level() float64 {
	if b.rate <= 0 {
		return -1
	}
	return b.tokens
}
