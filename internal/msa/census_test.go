package msa

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/seq"
)

// scanLog wraps a ScatterFunc to see what runChain asks of each scan and
// what comes back: per query, the hits of its recruiting round (in database
// order, as runChain stacks them) and of its last. With traceAll it also
// lifts the traceback ceiling to "every kept hit" — the scan before the
// census — so the two can be compared.
type scanLog struct {
	inner     ScatterFunc
	traceAll  bool
	recruited map[string][]hmmer.Hit
	last      map[string][]hmmer.Hit
}

func newScanLog(inner ScatterFunc, traceAll bool) *scanLog {
	return &scanLog{inner: inner, traceAll: traceAll, recruited: map[string][]hmmer.Hit{}, last: map[string][]hmmer.Hit{}}
}

func (l *scanLog) scatter(ctx context.Context, req ScatterRequest) (*hmmer.Result, error) {
	into := l.last
	switch req.Search.TraceE {
	case hmmer.InclusionE:
		into = l.recruited
	case hmmer.TraceNone:
	default:
		return nil, fmt.Errorf("runChain asked for traceback ceiling %g", req.Search.TraceE)
	}
	if l.traceAll {
		req.Search.TraceE = 0
	}
	res, err := l.inner(ctx, req)
	if err == nil {
		into[req.Query.ID] = append(into[req.Query.ID], res.Hits...)
	}
	return res, err
}

// TestChainsTraceOnlyWhatARoundRecruits is the traceback census from the
// chain's side, on every Table II sample: under the per-round ceiling a run
// computes what it computes with every kept hit traced — per-chain rows,
// streamed bytes, serial work, every worker's event stream, every final hit
// in every field but Alignment — and the rows each recruiting round stacks
// are byte-equal, so the next round's profile is the same profile. What
// changes is what the chain carries: final hits have no Alignment.
func TestChainsTraceOnlyWhatARoundRecruits(t *testing.T) {
	recruits, nucleotide := 0, 0
	for _, in := range inputs.Samples() {
		opts := Options{Threads: 3, DBs: dbs(t), CheckpointScope: "full", Checkpoint: NewCheckpoint()}
		plain, err := Run(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		ceiling, all := newScanLog(scanShards, false), newScanLog(scanShards, true)
		for _, l := range []*scanLog{ceiling, all} {
			res, err := Run(in, Options{Threads: 3, DBs: dbs(t), Scatter: l.scatter})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, plain, res)
		}
		for _, chain := range in.MSAChains() {
			q := chain.Sequence
			rows := hmmer.BuildGappedAlignment(q, ceiling.recruited[q.ID], hmmer.InclusionE)
			if want := hmmer.BuildGappedAlignment(q, all.recruited[q.ID], hmmer.InclusionE); !reflect.DeepEqual(rows, want) {
				t.Errorf("%s chain %s: the recruiting round stacks other rows than with every hit traced", in.Name, chain.IDs[0])
			}
			for _, h := range ceiling.recruited[q.ID] {
				if (h.Alignment != nil) != (h.EValue <= hmmer.InclusionE) {
					t.Errorf("%s chain %s: recruiting-round hit %s, E=%g, traced: %v", in.Name, chain.IDs[0], h.TargetID, h.EValue, h.Alignment != nil)
				}
			}
			recruits += len(rows) - 1
			if q.Type != seq.Protein {
				nucleotide++ // one round: nothing is ever traced
			}
			// A chain's final hits are its last round's — the recruiting
			// round's when that recruited nothing and the chain stopped.
			final := func(l *scanLog) []hmmer.Hit {
				if len(rows) > 1 || q.Type != seq.Protein {
					return l.last[q.ID]
				}
				return l.recruited[q.ID]
			}
			got, want := final(ceiling), final(all)
			if kept := opts.Checkpoint.lookup("full", chain.IDs[0]).hits; !reflect.DeepEqual(kept, got) {
				t.Errorf("%s chain %s: the chain keeps other hits than its final scans returned", in.Name, chain.IDs[0])
			}
			if len(got) != len(want) {
				t.Fatalf("%s chain %s: %d final hits, %d with every hit traced", in.Name, chain.IDs[0], len(got), len(want))
			}
			for i := range got {
				if want[i].Alignment == nil {
					t.Fatalf("%s chain %s: the all-traced arm left hit %s untraced", in.Name, chain.IDs[0], want[i].TargetID)
				}
				if got[i].Alignment != nil {
					t.Errorf("%s chain %s: final hit %s carries an alignment nobody reads", in.Name, chain.IDs[0], got[i].TargetID)
				}
				want[i].Alignment = nil
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s chain %s: final hit %d differs beyond its alignment:\n%+v\n%+v", in.Name, chain.IDs[0], i, got[i], want[i])
				}
			}
		}
	}
	if recruits == 0 || nucleotide == 0 {
		t.Errorf("%d rows recruited, %d single-round chains: the test is vacuous", recruits, nucleotide)
	}
}
