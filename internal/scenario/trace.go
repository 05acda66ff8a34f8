// Package scenario is the one place that knows how a load scenario runs
// against the serving stack: Trace / Events synthesize the requests, a
// Target (InProc, HTTP) takes them, Each / ClosedLoop / OpenLoop push them
// through, and Collect scrapes a finished server into serve.LoadStats.
// ClosedPass and QoSPass are one server lifetime each, closed- and
// open-loop; afload's measurement modes and the serving gates call them.
//
// The serving gates — chaos, chaos-disk, chaos-cluster, cluster-scaling,
// fairness, batch-sweep — are the rows of TestGates: each row fixes its
// seed, its serve.Config, its scenario and its assertions, and a failing
// row reproduces with go test -race -run 'TestGates/<row>$'.
//
// Everything synthesized here is a pure function of (seed, spec), so two
// runs — at any pool size — submit the identical sequence.
package scenario

import (
	"afsysbench/internal/inputs"
	"afsysbench/internal/rng"
)

// Trace synthesizes a request trace of sample names: the all-vs-all PPI
// screen over the first ppi pool proteins when ppi > 0 (mix and n are then
// unused), otherwise n draws from the weighted mix ("promo:1,1YY9:9").
func Trace(mix string, ppi, n int, seed uint64) ([]string, error) {
	if ppi > 0 {
		return PPITrace(ppi, seed)
	}
	samples, weights, err := inputs.ParseMix(mix)
	if err != nil {
		return nil, err
	}
	return inputs.WeightedTrace(samples, weights, n, seed), nil
}

// PPITrace derives the all-vs-all screening trace: every unordered pair
// over the first n pool proteins, in an order deterministically shuffled by
// the seed so consecutive requests do not trivially share a chain.
func PPITrace(n int, seed uint64) ([]string, error) {
	pairs, err := inputs.PPIAllPairs(n)
	if err != nil {
		return nil, err
	}
	trace := make([]string, len(pairs))
	for i, in := range pairs {
		trace[i] = in.Name
	}
	src := rng.New(seed).Split(0x9919)
	for i := len(trace) - 1; i > 0; i-- {
		j := src.Split(uint64(i)).Intn(i + 1)
		trace[i], trace[j] = trace[j], trace[i]
	}
	return trace, nil
}
