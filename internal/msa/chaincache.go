package msa

import (
	"fmt"

	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
)

// ChainFetch is the serving layer's cross-request chain-cache hook. It is
// consulted once per chain: the hook either returns a previously cached chain (hit=true) or runs compute —
// exactly once across concurrent identical requests, if the hook supplies
// singleflight — and returns its product (hit=false). scope is the
// database-profile signature (Options.Scope): a chain searched under a
// reduced profile must never be served for the full one, so the hook must
// fold scope into its key.
type ChainFetch func(scope string, chain inputs.Chain, compute func() (*CachedChain, error)) (cc *CachedChain, hit bool, err error)

// CachedChain is an opaque, serializable snapshot of one chain's complete
// MSA contribution — the chainDelta: summary row, final-round hits,
// per-function metering sums at every record boundary and a probe count
// per record (the reader lane, and the rest of the seed lane, are its
// databases', credited at the merge), streamed bytes, serial work. It is
// keyed by chain *content* (sequence, not the per-complex chain label),
// so the same pool chain reused across complexes hits warm; the label is
// rewritten at replay time. Nothing in it depends
// on the thread count it was searched at, so it serves every thread count.
// Replaying a CachedChain credits the exact sums a fresh search would have
// produced, which is what keeps the serving determinism contract intact
// across cache tiers.
type CachedChain struct {
	d    *chainDelta
	work uint64
	size int64
}

func newCachedChain(d *chainDelta) *CachedChain {
	return &CachedChain{d: d, work: deltaWork(d), size: deltaSize(d)}
}

// Work returns the modeled instruction count the snapshot represents
// (the scans' instructions plus serial work, never zero). The serving layer charges
// a request's MSA seconds by the fresh-work share, so a fully cached
// request schedules at zero CPU cost while a partial hit pays only its
// fresh chains.
func (cc *CachedChain) Work() uint64 { return cc.work }

// SizeBytes is the modeled in-memory footprint, the LRU charging size
// (the package convention: caller-declared modeled sizes, not allocator
// truth).
func (cc *CachedChain) SizeBytes() int64 { return cc.size }

// deltaFor returns the delta rewritten for the chain label cid. The
// snapshot is keyed by sequence content, so the same CachedChain may serve
// chain "A" of one complex and chain "B" of another; everything in the
// delta except the label is content-determined. The summary row is copied
// by value; hits, sums and streamed bytes are shared read-only.
func (cc *CachedChain) deltaFor(cid string) *chainDelta {
	d := *cc.d
	d.cr.ChainID = cid
	return &d
}

// deltaWork sums the modeled instructions a delta carries — its reader
// and seed lanes' among them — floored at 1 so work-share ratios stay
// well-defined for trivial chains.
func deltaWork(d *chainDelta) uint64 {
	w := d.serial + d.readerWork + d.seedWork
	for k := range d.sums {
		w += d.sums[k].total().Instructions
	}
	if w == 0 {
		w = 1
	}
	return w
}

// deltaSize estimates a delta's in-memory footprint for LRU charging: a
// function of the chain's content, so a chain costs the same at every
// thread count and across the codec. It charges each event the scans
// recorded as the 96 B it cost when a chain stored its events — the reader
// lane's three per record scanned and the seed lane's one per probe entry
// among them — so a tier of a given size holds the chains it always held.
func deltaSize(d *chainDelta) int64 {
	sz := int64(256) + int64(len(d.cr.ChainID))
	for _, h := range d.hits {
		sz += 96 + int64(len(h.TargetID))
		if h.Target != nil {
			sz += 48 + int64(len(h.Target.ID)) + int64(len(h.Target.Residues))
		}
		if h.Alignment != nil {
			sz += 16 + 24*int64(len(h.Alignment.Pairs))
		}
	}
	sz += 24 + 4*int64(d.cr.Scanned+1)
	for k := range d.sums {
		s := &d.sums[k]
		sz += int64(s.total().Events) * (96 + int64(len(s.f.String())))
	}
	for _, f := range readerFuncs {
		sz += int64(d.cr.Scanned) * (96 + int64(len(f.String())))
	}
	seeds := int64(0)
	for _, p := range d.probes {
		if p != 0 {
			seeds++
		}
	}
	sz += seeds * (96 + int64(len(metering.SeedFilter.String())))
	for name := range d.streamed {
		sz += 16 + int64(len(name))
	}
	return sz
}

// ChainFingerprint is the content identity of a chain for cross-request
// cache keys: molecule type and residues, independent of the per-complex
// chain label and copy count. Two chains with equal fingerprints produce
// byte-identical search deltas under the same scope and options.
func ChainFingerprint(chain inputs.Chain) string {
	s := chain.Sequence
	return fmt.Sprintf("%d|%s|%s", s.Type, s.ID, s.Letters())
}
