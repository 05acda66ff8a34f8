package main

import (
	"fmt"
	"os"
	"runtime/debug"

	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/serve"
	"afsysbench/internal/stats"
)

func baseConfig() serve.Config {
	return serve.Config{Machine: serverMachine(), Threads: threads, MSAWorkers: msaWorkers, GPUWorkers: gpuWorkers}
}

func doneOps(ops []op) int {
	n := 0
	for i := range ops {
		if ops[i].err == nil && ops[i].status.State == "done" {
			n++
		}
	}
	return n
}

// httpRound is the part the three HTTP workloads share: drive one trace
// against a daemon inside the timed window, then verify it. In the traced
// run it also turns the round's guard-point marks into spans.
func (r *run) httpRound(d *daemon, trace []string, scrapeEvery int, refs map[string]reference) []op {
	var ops []op
	var scrapes []float64
	if r.tr != nil {
		r.tr.resetRound()
	}
	r.window(len(trace), func() int {
		ops, scrapes = d.drive(trace, scrapeEvery)
		return doneOps(ops)
	})
	r.settleClosedLoop(outcomes(d.srv, ops), refs)
	if r.tr != nil {
		r.requestSpans(ops)
		r.layer["serve.metrics_snapshot_ms"] = stats.Median(scrapes)
	}
	return ops
}

// ---- cold_msa ----

// coldMix is the per-12 request mix shared by cold_msa and sharded_cold.
var coldMix = []string{
	"2PV7", "2PV7", "2PV7", "2PV7",
	"7RCE", "7RCE", "7RCE", "7RCE",
	"1YY9", "1YY9",
	"promo",
	"6QNR",
}

// smokeMix keeps -smoke under two seconds: no promo, no 6QNR.
var smokeMix = []string{"2PV7", "7RCE", "1YY9", "2PV7"}

const coldCycles = 3 // cycles of the mix per measured round

// coldTrace is round i's request order: cycles of the mix, each shuffled
// on its own seed lane (the warm-up, i = -1, is a single cycle). Shuffling
// cycle by cycle keeps the two long samples spread over the round, so how
// often they overlap a short one varies less from seed to seed.
func coldTrace(seed uint64, i int, smoke bool) []string {
	mix, cycles := coldMix, coldCycles
	if smoke {
		mix, cycles = smokeMix, 1
	}
	if i < 0 {
		cycles = 1
	}
	var trace []string
	for c := 0; c < cycles; c++ {
		trace = append(trace, shuffled(mix, seed, 0xC01D+uint64(i+1)*coldCycles+uint64(c))...)
	}
	return trace
}

type coldMSA struct {
	suite *core.Suite
	refs  map[string]reference
	d     *daemon
}

func (w *coldMSA) setup(r *run) error {
	var err error
	if w.suite, err = core.NewSuite(); err != nil {
		return err
	}
	if w.refs, err = references(w.suite, distinct(coldTrace(r.seed, -1, r.smoke))); err != nil {
		return err
	}
	w.d, err = r.daemon(w.suite, baseConfig())
	return err
}

func (w *coldMSA) round(r *run, i int) error {
	r.httpRound(w.d, coldTrace(r.seed, i, r.smoke), 0, w.refs)
	return nil
}

func (w *coldMSA) traced(r *run) error {
	r.httpRound(w.d, coldTrace(r.seed, 0, r.smoke), 0, w.refs)
	r.serverPasses(w.d.srv)
	jobs := len(w.d.srv.Statuses()) // warm-up included: the table keeps them all
	held := liveHeapMB()
	w.close()
	r.retained(held, jobs)
	names := distinct(coldTrace(r.seed, -1, r.smoke))
	r.hmmerPass(w.suite, names)
	r.msaPass(w.suite, names, r.corePass(w.suite, names), true)
	r.simPasses(w.suite, names)
	return nil
}

func (w *coldMSA) close() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}

// ---- hot_cache ----

var hotMix = []string{"2PV7", "7RCE", "1YY9"}

const (
	hotOpsPerRound = 1500
	hotScrapeEvery = 250
)

// hotCache runs fully cached requests. A round is a daemon lifetime: a
// fresh serve.Server and http.Server sharing the warmed cache, torn down
// between rounds outside the timed window — today's job table keeps every
// finished job, so an unbounded lifetime would measure the leak, not the
// hit path.
type hotCache struct {
	suite *core.Suite
	refs  map[string]reference
	cache *cache.Cache
}

func (w *hotCache) config() serve.Config {
	cfg := baseConfig()
	cfg.Cache = w.cache
	return cfg
}

func (w *hotCache) trace(r *run) []string {
	n := hotOpsPerRound
	if r.smoke {
		n = 300
	}
	trace := make([]string, n)
	for i := range trace {
		trace[i] = hotMix[(i+int(r.seed%3))%len(hotMix)]
	}
	return trace
}

func (w *hotCache) setup(r *run) error {
	var err error
	if w.suite, err = core.NewSuite(); err != nil {
		return err
	}
	if w.refs, err = references(w.suite, hotMix); err != nil {
		return err
	}
	w.cache = cache.New(0)
	d, err := r.daemon(w.suite, w.config())
	if err != nil {
		return err
	}
	defer d.stop()
	ops, _ := d.drive(hotMix, 0)
	if doneOps(ops) != len(hotMix) {
		return fmt.Errorf("cache warm pass: %d of %d done", doneOps(ops), len(hotMix))
	}
	return nil
}

func (w *hotCache) lifetime(r *run, after func(d *daemon, ops []op)) error {
	d, err := r.daemon(w.suite, w.config())
	if err != nil {
		return err
	}
	ops := r.httpRound(d, w.trace(r), hotScrapeEvery, w.refs)
	for i := range ops {
		if ops[i].err == nil && !ops[i].status.CacheHit {
			r.fail("%s: not a cache hit on a warmed cache", ops[i].id)
		}
	}
	if after != nil {
		after(d, ops)
	} else {
		d.stop()
	}
	debug.FreeOSMemory()
	return nil
}

func (w *hotCache) round(r *run, i int) error { return w.lifetime(r, nil) }

func (w *hotCache) traced(r *run) error {
	// One untraced lifetime first: the same round with the wrappers off is
	// the base the tracing overhead is measured against.
	tr := r.tr
	r.tr = nil
	if err := w.lifetime(r, nil); err != nil {
		return err
	}
	untraced := float64(r.roundOps[0]) / r.walls[0]
	r.resetMeasurements()
	r.tr = tr
	err := w.lifetime(r, func(d *daemon, ops []op) {
		r.serverPasses(d.srv)
		r.cacheStats(w.cache)
		held := liveHeapMB()
		d.stop()
		d = nil
		r.retained(held, len(ops))
	})
	if err != nil {
		return err
	}
	r.layer["trace.overhead_pct"] = 100 * (untraced - float64(r.roundOps[0])/r.walls[0]) / untraced
	r.msaPass(w.suite, hotMix, r.corePass(w.suite, hotMix), false)
	r.cachePass(w.cache)
	r.simPasses(w.suite, hotMix)
	return nil
}

func (w *hotCache) close() {}

// ---- ppi_two_tier ----

const (
	ppiPool     = 10 // proteins; 55 unordered pairs including self-pairs
	ppiLaps     = 3
	ppiMemBytes = 1 << 20 // the 10-chain working set is ~2 MB: it cannot fit
)

// ppiTwoTier is the screening shape: every round starts with an empty
// 1 MiB memory tier over an empty disk tier, so each round pays ten
// first-sighting searches, spills them as they are evicted, and serves
// the rest of its chain lookups from memory or disk.
type ppiTwoTier struct {
	suite *core.Suite
	refs  map[string]reference
	pairs []string
	pool  int
}

func (w *ppiTwoTier) setup(r *run) error {
	var err error
	if w.suite, err = core.NewSuite(); err != nil {
		return err
	}
	w.pool = ppiPool
	if r.smoke {
		w.pool = 4
	}
	pairs, err := inputs.PPIAllPairs(w.pool)
	if err != nil {
		return err
	}
	w.pairs = w.pairs[:0]
	for _, in := range pairs {
		w.pairs = append(w.pairs, in.Name)
	}
	w.refs, err = references(w.suite, w.pairs)
	return err
}

func (w *ppiTwoTier) trace(r *run, i int) []string {
	laps := ppiLaps
	if r.smoke {
		laps = 1
	}
	var trace []string
	for lap := 0; lap < laps; lap++ {
		trace = append(trace, shuffled(w.pairs, r.seed, 0x9919+uint64(i+1)*16+uint64(lap))...)
	}
	return trace
}

func (w *ppiTwoTier) lifetime(r *run, i int, after func(d *daemon, ops []op, mem *cache.Cache, disk *cachedisk.Store)) error {
	dir, err := os.MkdirTemp("", "afbench-ppi-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := cachedisk.Open(cachedisk.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer disk.Close()
	mem := cache.New(ppiMemBytes)
	cfg := baseConfig()
	cfg.Cache, cfg.DiskCache = mem, disk
	d, err := r.daemon(w.suite, cfg)
	if err != nil {
		return err
	}
	ops := r.httpRound(d, w.trace(r, i), 0, w.refs)
	if st := disk.Stats(); st.WriteErrors+st.ReadErrors+st.JournalErrors > 0 {
		r.fail("disk tier: %d write, %d read, %d journal errors", st.WriteErrors, st.ReadErrors, st.JournalErrors)
	}
	if after != nil {
		after(d, ops, mem, disk)
	} else {
		d.stop()
	}
	return nil
}

func (w *ppiTwoTier) round(r *run, i int) error { return w.lifetime(r, i, nil) }

func (w *ppiTwoTier) traced(r *run) error {
	err := w.lifetime(r, 0, func(d *daemon, ops []op, mem *cache.Cache, disk *cachedisk.Store) {
		r.serverPasses(d.srv)
		r.cacheStats(mem)
		r.diskStats(disk)
		r.cachePass(mem)
		held := liveHeapMB()
		d.stop()
		d = nil
		r.retained(held, len(ops))
	})
	if err != nil {
		return err
	}
	// The first pool-size pairs are 0x0 .. 0x9: every pool chain once.
	names := w.pairs[:w.pool]
	r.hmmerPass(w.suite, names)
	chains := r.corePass(w.suite, names)
	r.msaPass(w.suite, names, chains, true)
	if err := r.diskPass(chains); err != nil {
		return err
	}
	r.simPasses(w.suite, names)
	return nil
}

func (w *ppiTwoTier) close() {}
