// Package rng provides a deterministic, splittable pseudo-random number
// generator used to synthesize every artifact in the benchmark suite
// (sequences, databases, model weights, noise schedules). Determinism is a
// hard requirement: two runs of any experiment must see bit-identical
// synthetic inputs so that simulated-time results are reproducible.
//
// The generator is xoshiro256** (Blackman & Vigna). It is not
// cryptographically secure and must never be used for security purposes.
package rng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New. Source is not safe for concurrent use; use
// Split to derive independent streams for worker goroutines.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed using SplitMix64, which
// guarantees a well-mixed non-zero internal state for any seed value.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent stream labeled by key. Streams derived with
// distinct keys from the same parent are statistically independent, and
// splitting does not advance the parent stream, so adding a new derived
// stream never perturbs existing ones.
func (r *Source) Split(key uint64) *Source {
	// Hash the current state together with the key through SplitMix64 so
	// that (parent, key) fully determines the child.
	mix := func(v uint64) uint64 {
		v += 0x9e3779b97f4a7c15
		v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
		v = (v ^ (v >> 27)) * 0x94d049bb133111eb
		return v ^ (v >> 31)
	}
	h := mix(r.s[0] ^ key)
	h = mix(h ^ r.s[1])
	h = mix(h ^ r.s[2])
	h = mix(h ^ r.s[3])
	return New(h)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + (t >> 32)
	return hi, lo
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
