package msa

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
)

// ChainFetch is the serving layer's cross-request chain-cache hook. It is
// consulted once per chain, after the per-request checkpoint: the hook
// either returns a previously cached chain (hit=true) or runs compute —
// exactly once across concurrent identical requests, if the hook supplies
// singleflight — and returns its product (hit=false). scope is the
// database-profile signature (CheckpointScope): a chain searched under a
// reduced profile must never be served for the full one, so the hook must
// fold scope into its key.
type ChainFetch func(scope string, chain inputs.Chain, compute func() (*CachedChain, error)) (cc *CachedChain, hit bool, err error)

// CachedChain is an opaque, serializable snapshot of one chain's complete
// MSA contribution — the chainDelta: summary row, final-round hits,
// per-worker metering events, streamed bytes, serial work. It is keyed by
// chain *content* (sequence, not the per-complex chain label), so the same
// pool chain reused across complexes hits warm; the label is rewritten at
// replay time. Replaying a CachedChain merges the exact bytes a fresh
// search would have produced, which is what keeps the serving determinism
// contract intact across cache tiers.
type CachedChain struct {
	d    *chainDelta
	work uint64
	size int64
}

// chainDeltaWire is the exported mirror of chainDelta for gob transport.
type chainDeltaWire struct {
	CR       ChainResult
	Hits     []hmmer.Hit
	Workers  []*metering.Accumulator
	Streamed map[string]int64
	Serial   uint64
}

func newCachedChain(d *chainDelta) *CachedChain {
	return &CachedChain{d: d, work: deltaWork(d), size: deltaSize(d)}
}

// Work returns the modeled instruction count the snapshot represents
// (worker events plus serial work, never zero). The serving layer charges
// a request's MSA seconds by the fresh-work share, so a fully cached
// request schedules at zero CPU cost while a partial hit pays only its
// fresh chains.
func (cc *CachedChain) Work() uint64 { return cc.work }

// SizeBytes is the modeled in-memory footprint, the LRU charging size
// (the package convention: caller-declared modeled sizes, not allocator
// truth).
func (cc *CachedChain) SizeBytes() int64 { return cc.size }

// Encode serializes the snapshot for the persistent tier. gob carries only
// an accumulator's head run, so a delta whose workers were assembled with
// Link is refused rather than written short: chain-level accumulators are
// flat by construction (recorders and the cluster scatter only append).
func (cc *CachedChain) Encode() ([]byte, error) {
	for i, acc := range cc.d.workers {
		if acc.Linked() {
			return nil, fmt.Errorf("msa: encode cached chain: worker accumulator %d is linked", i)
		}
	}
	var buf bytes.Buffer
	w := chainDeltaWire{
		CR:       cc.d.cr,
		Hits:     cc.d.hits,
		Workers:  cc.d.workers,
		Streamed: cc.d.streamed,
		Serial:   cc.d.serial,
	}
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("msa: encode cached chain: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCachedChain reverses Encode. It validates structural invariants
// that the merge path relies on (worker accumulators non-nil), so a decode
// of a syntactically valid but semantically broken payload fails cleanly
// instead of panicking later.
func DecodeCachedChain(b []byte) (*CachedChain, error) {
	var w chainDeltaWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return nil, fmt.Errorf("msa: decode cached chain: %w", err)
	}
	for i, acc := range w.Workers {
		if acc == nil {
			return nil, fmt.Errorf("msa: decode cached chain: nil worker accumulator %d", i)
		}
	}
	for i, h := range w.Hits {
		if h.Target == nil {
			return nil, fmt.Errorf("msa: decode cached chain: hit %d has no target", i)
		}
	}
	d := &chainDelta{
		cr:       w.CR,
		hits:     w.Hits,
		workers:  w.Workers,
		streamed: w.Streamed,
		serial:   w.Serial,
	}
	if d.streamed == nil {
		d.streamed = make(map[string]int64)
	}
	return newCachedChain(d), nil
}

// deltaFor returns the delta rewritten for the chain label cid. The
// snapshot is keyed by sequence content, so the same CachedChain may serve
// chain "A" of one complex and chain "B" of another; everything in the
// delta except the label is content-determined. The summary row is copied
// by value; hits, events and streamed bytes are shared read-only — with
// every Result the delta is merged into as well, since merge links the
// worker events instead of copying them.
func (cc *CachedChain) deltaFor(cid string) *chainDelta {
	d := &chainDelta{
		cr:       cc.d.cr,
		hits:     cc.d.hits,
		workers:  cc.d.workers,
		streamed: cc.d.streamed,
		serial:   cc.d.serial,
	}
	d.cr.ChainID = cid
	return d
}

// deltaWork sums the modeled instructions a delta carries, floored at 1 so
// work-share ratios stay well-defined for trivial chains.
func deltaWork(d *chainDelta) uint64 {
	w := d.serial
	for _, acc := range d.workers {
		w += acc.Totals().Instructions
	}
	if w == 0 {
		w = 1
	}
	return w
}

// deltaSize estimates a delta's in-memory footprint for LRU charging.
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
	for _, acc := range d.workers {
		sz += 24
		for _, ev := range acc.Flat() {
			sz += 96 + int64(len(ev.Func))
		}
	}
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
