package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
	"afsysbench/internal/core"
	"afsysbench/internal/diffusion"
	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/memest"
	"afsysbench/internal/metering"
	"afsysbench/internal/msa"
	"afsysbench/internal/pairformer"
	"afsysbench/internal/parallel"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
	"afsysbench/internal/serve"
	"afsysbench/internal/simgpu"
	"afsysbench/internal/simhw"
	"afsysbench/internal/simio"
	"afsysbench/internal/stats"
	"afsysbench/internal/tensor"
	"afsysbench/internal/xla"
)

// This file is the traced run's layer side: the wrappers a traced round
// arms, and the direct passes that call each layer's public functions on
// the workload's own inputs. Nothing here reaches inside a package.

const codecGob uint16 = 1 // serve's chain payload codec id

// arm installs the traced run's wrappers on a server config: the stage
// marks at serve's public guard points and a harness-owned registry.
func (r *run) arm(cfg *serve.Config) {
	if r.tr == nil {
		return
	}
	cfg.PanicHook = r.tr.stageMark
	cfg.Metrics = metering.NewRegistry()
}

// layerMetrics is the traced run's result: every per-layer metric by name
// (0 for a layer the workload does not execute) and the names the passes
// wrote. On a run without failures those must be exactly the workload's
// column of layerSpecs: a metric no pass emits, or a misspelt one, is an
// error, not a silent 0.
func (r *run) layerMetrics(workload string) (map[string]metric, []string, error) {
	out := make(map[string]metric, len(layerSpecs))
	var written []string
	for _, s := range layerSpecs {
		value, ok := r.layer[s.Name]
		if ok {
			written = append(written, s.Name)
		}
		if expected := s.On.has(workload); ok != expected && r.failed == 0 {
			return nil, nil, fmt.Errorf("%s: %s written by a pass: %v; listed for the workload in layerSpecs: %v", workload, s.Name, ok, expected)
		}
		out[s.Name] = metric{value, s.Unit}
	}
	if len(written) != len(r.layer) {
		return nil, nil, fmt.Errorf("%s: the passes wrote %d metrics, %d of them named in layerSpecs", workload, len(r.layer), len(written))
	}
	return out, written, nil
}

// requestSpans turns one traced round into a span tree per request and
// the serve stage metrics. The request span (client.request) has six
// children laid end to end: client.submit (POST sent to server-side
// admission), then serve's four stages between its guard points, then
// client.detect (job terminal to the poll that saw it).
func (r *run) requestSpans(ops []op) {
	var queue, msaStage, handoff, inference, share []float64
	var submit, status, overhead, wall []float64
	polls := 0
	for i := range ops {
		o := &ops[i]
		marks := r.tr.takeMarks(o.ordinal)
		admitted, ok := r.tr.takeAdmit(i)
		if o.err != nil || o.status.State != "done" || !ok || len(marks) < 3 {
			continue
		}
		// serve exposes no stamp for the moment a job turns terminal, only
		// WallMs: the inference stage's end is the admission stamp plus that.
		// The admission stamp precedes serve's own submit time by the handler's
		// request decode (tens of microseconds), so clamp into the known order.
		done := admitted.Add(time.Duration(o.status.WallMs * float64(time.Millisecond)))
		if done.Before(marks["inference"]) {
			done = marks["inference"]
		}
		if done.After(o.end) {
			done = o.end
		}
		root := r.tr.add("client.request", o.start, o.end, -1, i)
		r.tr.add("client.submit", o.start, admitted, root, i)
		r.tr.add("serve.queue_wait", admitted, marks["msa"], root, i)
		r.tr.add("serve.msa_stage", marks["msa"], marks["handoff"], root, i)
		r.tr.add("serve.handoff_wait", marks["handoff"], marks["inference"], root, i)
		r.tr.add("serve.inference_stage", marks["inference"], done, root, i)
		r.tr.add("client.detect", done, o.end, root, i)

		queue = append(queue, ms(marks["msa"].Sub(admitted)))
		msaStage = append(msaStage, ms(marks["handoff"].Sub(marks["msa"])))
		handoff = append(handoff, ms(marks["inference"].Sub(marks["handoff"])))
		inference = append(inference, ms(done.Sub(marks["inference"])))
		share = append(share, o.status.WallMs/o.latencyMs())
		submit = append(submit, ms(o.posted.Sub(o.start)))
		status = append(status, ms(o.pollTime)/float64(o.polls))
		overhead = append(overhead, o.latencyMs()-o.status.WallMs)
		wall = append(wall, o.status.WallMs)
		polls += o.polls
	}
	r.layer["serve.queue_wait_ms_p50"] = stats.Median(queue)
	r.layer["serve.msa_stage_ms_p50"] = stats.Median(msaStage)
	r.layer["serve.handoff_wait_ms_p50"] = stats.Median(handoff)
	r.layer["serve.inference_stage_ms_p50"] = stats.Median(inference)
	r.layer["serve.wall_share"] = stats.Median(share)
	r.layer["serve.http_submit_ms_p50"] = stats.Median(submit)
	r.layer["serve.http_status_ms_p50"] = stats.Median(status)
	r.layer["serve.wall_ms_p50"] = stats.Median(wall)
	r.layer["client.http_overhead_ms_p50"] = stats.Median(overhead)
	if len(wall) > 0 {
		r.layer["client.polls_per_op"] = float64(polls) / float64(len(wall))
	}
}

// serverPasses times the whole-table calls on the drained server at its
// end-of-round job count, and reads the harness registry's counts.
func (r *run) serverPasses(srv *serve.Server) {
	t0 := time.Now()
	_ = srv.Statuses()
	r.layer["serve.statuses_ms"] = ms(time.Since(t0))
	if r.layer["serve.metrics_snapshot_ms"] == 0 { // no timed scrapes this round
		t0 = time.Now()
		_ = srv.MetricsSnapshot()
		r.layer["serve.metrics_snapshot_ms"] = ms(time.Since(t0))
	}
	cfg := srv.Config()
	t0 = time.Now()
	_ = srv.ModeledSchedule(cfg.MSAWorkers, cfg.GPUWorkers)
	r.layer["serve.modeled_schedule_ms"] = ms(time.Since(t0))
	r.registryCounts(srv)
	r.submitPass(srv)
}

func (r *run) registryCounts(srv *serve.Server) {
	reg := srv.Metrics()
	for _, name := range []string{"requests_admitted", "requests_shed", "requests_failed", "requests_brownout", "msa_stage_runs", "inference_stage_runs"} {
		r.layer["serve."+name] += float64(reg.Get(name))
	}
	if b := srv.BatchReport(); b != nil {
		r.layer["serve.batches_dispatched"] = float64(b.Batches)
		r.layer["serve.batch_mean_size"] = b.MeanBatchSize
		if n := b.CompileCache.Hits + b.CompileCache.Misses; n > 0 {
			r.layer["serve.compile_cache_hit_ratio"] = float64(b.CompileCache.Hits) / float64(n)
		}
		r.layer["batch.pad_waste_pct"] = b.PaddingWastePct
	}
}

// submitPass times Server.Submit directly: admissions into a twin of the
// round's server that is never started, so nothing but admission runs.
func (r *run) submitPass(like *serve.Server) {
	cfg := like.Config()
	cfg.PanicHook, cfg.Metrics, cfg.QoS, cfg.DiskCache = nil, nil, nil, nil
	statuses := like.Statuses()
	if len(statuses) == 0 {
		return
	}
	n := 48 // under the default 64-deep admission queue
	if len(statuses) < n {
		n = len(statuses)
	}
	suite, err := core.NewSuite()
	if err != nil {
		return
	}
	srv := serve.NewWithSuite(suite, cfg)
	us := timeEach(n, time.Microsecond, func(i int) {
		_, _ = srv.Submit(serve.Request{Sample: statuses[i].Sample})
	})
	srv.Stop()
	r.layer["serve.submit_us_p50"] = stats.Median(us)
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / 1e6
}

// retained reports what a drained server keeps alive per finished job:
// live heap with it held, minus live heap after drop released it.
func (r *run) retained(held float64, jobs int) {
	if jobs > 0 {
		r.layer["serve.retained_mb_per_job"] = (held - liveHeapMB()) / float64(jobs)
	}
}

func (r *run) cacheStats(c *cache.Cache) {
	st := c.Stats()
	r.layer["cache.hit_ratio"] = st.HitRate()
	r.layer["cache.shared"] = float64(st.Shared)
	r.layer["cache.evictions"] = float64(st.Evictions)
}

func (r *run) diskStats(d *cachedisk.Store) {
	st := d.Stats()
	r.layer["cachedisk.hits"] = float64(st.Hits)
	r.layer["cachedisk.puts"] = float64(st.Puts)
	r.layer["cachedisk.bytes"] = float64(st.Bytes)
	r.layer["cachedisk.retries"] = float64(st.Retries)
}

// runtimeWatch samples the Go runtime across a traced window through
// runtime/metrics (no stop-the-world) and reports GC work and heap peak.
type runtimeWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
	base []metrics.Sample
}

var runtimeSeries = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSeries))
	for i, name := range runtimeSeries {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func watchRuntime() *runtimeWatch {
	w := &runtimeWatch{stop: make(chan struct{}), done: make(chan struct{}), base: readRuntime()}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				metrics.Read(heap)
				if v := heap[0].Value.Uint64(); v > w.peak {
					w.peak = v
				}
			}
		}
	}()
	return w
}

func (w *runtimeWatch) finish(r *run, before, after *runtime.MemStats) {
	close(w.stop)
	<-w.done
	now := readRuntime()
	r.layer["runtime.gc_count"] = float64(now[0].Value.Uint64() - w.base[0].Value.Uint64())
	if total := now[2].Value.Float64() - w.base[2].Value.Float64(); total > 0 {
		r.layer["runtime.gc_cpu_share"] = (now[1].Value.Float64() - w.base[1].Value.Float64()) / total
	}
	r.layer["runtime.gc_pause_total_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if v := now[3].Value.Uint64(); v > w.peak {
		w.peak = v
	}
	r.layer["runtime.heap_inuse_peak_mb"] = float64(w.peak) / 1e6
	r.layer["runtime.goroutines_end"] = float64(runtime.NumGoroutine())
}

// hmmerPass calls hmmer.Search*Ctx over every MSA chain x database pair of
// the samples, once with the suite's engine options and once with SWAR on.
func (r *run) hmmerPass(suite *core.Suite, names []string) {
	type pair struct {
		query *seq.Sequence
		srcFn func() hmmer.RecordSource
		resid int
		opts  hmmer.SearchOptions
	}
	var protein, nucleotide []pair
	seen := make(map[string]bool)
	for _, name := range names {
		in, err := inputs.ByName(name)
		if err != nil {
			continue
		}
		for _, chain := range in.MSAChains() {
			fp := msa.ChainFingerprint(chain)
			if seen[fp] {
				continue
			}
			seen[fp] = true
			for _, db := range suite.DBs.For(chain.Sequence.Type) {
				db := db
				p := pair{
					query: chain.Sequence,
					srcFn: func() hmmer.RecordSource { return &hmmer.SliceSource{Seqs: db.Seqs} },
					resid: db.TotalResidues(),
					opts:  suite.Search,
				}
				p.opts.DBFootprint = uint64(db.ModeledBytes())
				if chain.Sequence.Type == seq.Protein {
					protein = append(protein, p)
				} else {
					nucleotide = append(nucleotide, p)
				}
			}
		}
	}
	ctx := context.Background()
	var total hmmer.Result
	// scan returns the arm's wall time and the DP cells it evaluated.
	scan := func(ps []pair, nucleotide, swar bool) (time.Duration, uint64) {
		var wall time.Duration
		var cells uint64
		for _, p := range ps {
			opts := p.opts
			opts.DisableSWAR = !swar
			search := hmmer.SearchProteinCtx
			if nucleotide {
				search = hmmer.SearchNucleotideCtx
			}
			t0 := time.Now()
			res, err := search(ctx, p.query, p.srcFn, p.resid, opts, metering.Nop{})
			end := time.Now()
			wall += end.Sub(t0)
			if err != nil {
				r.fail("hmmer pass %s: %v", p.query.ID, err)
				continue
			}
			r.tr.add("hmmer.search", t0, end, -1, -1)
			cells += res.CellsDP
			if !swar {
				total.CellsDP += res.CellsDP
				total.CellsPruned += res.CellsPruned
				total.Candidates += res.Candidates
				total.Scanned += res.Scanned
				total.Hits = append(total.Hits, res.Hits...)
			} else {
				total.LanesRejected += res.LanesRejected
			}
		}
		return wall, cells
	}
	perCell := func(wall time.Duration, cells uint64) float64 {
		if cells == 0 {
			return 0
		}
		return float64(wall.Nanoseconds()) / float64(cells)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	proteinWall, proteinCells := scan(protein, false, false)
	r.layer["hmmer.protein_ns_per_cell"] = perCell(proteinWall, proteinCells)
	r.layer["hmmer.nucleotide_ns_per_cell"] = perCell(scan(nucleotide, true, false))
	runtime.ReadMemStats(&after)
	if n := len(protein) + len(nucleotide); n > 0 {
		r.layer["hmmer.allocs_per_scan"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	// The SWAR arm is charged per cell of the same work, i.e. the cells the
	// float cascade evaluates: SWAR's own count shrinks with every lane it
	// rejects, which would hide exactly the saving the arm is there to show.
	swarWall, _ := scan(protein, false, true)
	r.layer["hmmer.protein_swar_ns_per_cell"] = perCell(swarWall, proteinCells)
	r.layer["hmmer.cells_dp"] = float64(total.CellsDP)
	r.layer["hmmer.cells_pruned"] = float64(total.CellsPruned)
	if sum := total.CellsDP + total.CellsPruned; sum > 0 {
		r.layer["hmmer.pruned_ratio"] = float64(total.CellsPruned) / float64(sum)
	}
	r.layer["hmmer.candidates"] = float64(total.Candidates)
	r.layer["hmmer.records_scanned"] = float64(total.Scanned)
	r.layer["hmmer.hits"] = float64(len(total.Hits))
	r.layer["hmmer.lanes_rejected"] = float64(total.LanesRejected)
}

// chainStore holds the cached-chain snapshots a fresh MSA phase produced,
// keyed by chain content: the payloads later passes replay, encode and
// store.
type chainStore struct {
	mu     sync.Mutex
	chains map[string]*msa.CachedChain
}

func (s *chainStore) capture(scope string, chain inputs.Chain, compute func() (*msa.CachedChain, error)) (*msa.CachedChain, bool, error) {
	cc, err := compute()
	if err == nil {
		s.mu.Lock()
		s.chains[msa.ChainFingerprint(chain)] = cc
		s.mu.Unlock()
	}
	return cc, false, err
}

func (s *chainStore) alwaysHit(scope string, chain inputs.Chain, compute func() (*msa.CachedChain, error)) (*msa.CachedChain, bool, error) {
	s.mu.Lock()
	cc := s.chains[msa.ChainFingerprint(chain)]
	s.mu.Unlock()
	if cc == nil {
		cc, err := compute()
		return cc, false, err
	}
	return cc, true, nil
}

// corePass runs core's two phases directly: the MSA phase fresh (capturing
// each chain's snapshot) and with a chain cache that always hits — where
// the merge/memclr cost of a cached request lives — then the inference
// phase and a cold CompileSim.
func (r *run) corePass(suite *core.Suite, names []string) *chainStore {
	store := &chainStore{chains: make(map[string]*msa.CachedChain)}
	ctx := context.Background()
	var ins []*inputs.Input
	for _, name := range names {
		if in, err := inputs.ByName(name); err == nil {
			ins = append(ins, in)
		}
	}
	if len(ins) == 0 {
		return store
	}
	phase := func(in *inputs.Input, hook msa.ChainFetch) {
		opts := pipelineOpts()
		opts.ChainCache = hook
		if _, err := suite.RunMSAPhase(ctx, in, core.MachineFor(in, serverMachine()), opts); err != nil {
			r.fail("core pass %s: %v", in.Name, err)
		}
	}
	fresh := timeEach(len(ins), time.Millisecond, func(i int) {
		t0 := time.Now()
		phase(ins[i], store.capture)
		r.tr.add("core.msa_phase_fresh", t0, time.Now(), -1, -1)
	})
	r.layer["core.msa_phase_fresh_ms_p50"] = stats.Median(fresh)

	const hitReps = 60
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hit := timeEach(hitReps, time.Millisecond, func(i int) { phase(ins[i%len(ins)], store.alwaysHit) })
	runtime.ReadMemStats(&after)
	r.layer["core.msa_phase_hit_ms_p50"] = stats.Median(hit)
	r.layer["core.msa_phase_hit_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / hitReps

	inf := timeEach(hitReps, time.Microsecond, func(i int) {
		in := ins[i%len(ins)]
		if _, err := suite.RunInferencePhase(ctx, in, core.MachineFor(in, serverMachine()), pipelineOpts()); err != nil {
			r.fail("core inference pass %s: %v", in.Name, err)
		}
	})
	r.layer["core.inference_phase_us_p50"] = stats.Median(inf)

	if cold, err := core.NewSuite(); err == nil {
		t0 := time.Now()
		_, err := cold.CompileSim(serverMachine(), ins[0].TotalResidues())
		if err == nil {
			r.layer["core.compile_sim_cold_ms"] = ms(time.Since(t0))
		}
	}
	return store
}

// msaPass runs msa.RunCtx directly at one and two threads and exercises
// the cached-chain codec on the snapshots corePass captured.
func (r *run) msaPass(suite *core.Suite, names []string, store *chainStore, searches bool) {
	ctx := context.Background()
	if searches {
		var chainMs []float64
		var mu sync.Mutex
		runAll := func(t int) []float64 {
			return timeEach(len(names), time.Millisecond, func(i int) {
				in, err := inputs.ByName(names[i])
				if err != nil {
					return
				}
				opts := msa.Options{Threads: t, Search: suite.Search, DBs: suite.DBs, AllowMissingDB: true}
				if t == 1 {
					opts.ChainDone = func(_ string, wall time.Duration) {
						mu.Lock()
						chainMs = append(chainMs, ms(wall))
						mu.Unlock()
					}
				}
				t0 := time.Now()
				if _, err := msa.RunCtx(ctx, in, opts); err != nil {
					r.fail("msa pass %s: %v", in.Name, err)
				}
				r.tr.add("msa.run", t0, time.Now(), -1, -1)
			})
		}
		one, two := runAll(1), runAll(2)
		r.layer["msa.run_ms_p50"] = stats.Median(one)
		r.layer["msa.chain_ms_p50"] = stats.Percentile(chainMs, 50)
		r.layer["msa.chain_ms_p90"] = stats.Percentile(chainMs, 90)
		var sum1, sum2 float64
		for i := range one {
			sum1 += one[i]
			sum2 += two[i]
		}
		if sum2 > 0 {
			r.layer["msa.speedup_2t"] = sum1 / sum2
		}
	}

	var enc, dec, size []float64
	for _, cc := range store.chains {
		var payload []byte
		enc = append(enc, timeEach(1, time.Microsecond, func(int) { payload, _ = cc.Encode() })...)
		dec = append(dec, timeEach(1, time.Microsecond, func(int) { _, _ = msa.DecodeCachedChain(payload) })...)
		size = append(size, float64(len(payload)))
	}
	r.layer["msa.chain_encode_us_p50"] = stats.Median(enc)
	r.layer["msa.chain_decode_us_p50"] = stats.Median(dec)
	r.layer["msa.chain_bytes_mean"] = stats.Mean(size)
	r.layer["msa.dbset_fingerprint_us"] = stats.Median(timeEach(20, time.Microsecond, func(int) { _ = suite.DBs.Fingerprint() }))
}

// simPasses calls the machine models the way every request does, cached
// or not: the MSA replay on simhw, a sequential read on simio, inference
// on simgpu, the memory gate, and the XLA graph build and compile.
func (r *run) simPasses(suite *core.Suite, names []string) {
	mach := serverMachine()
	var specMs, simMs, perEvent, readUs, infUs, checkUs []float64
	for _, name := range names {
		in, err := inputs.ByName(name)
		if err != nil {
			continue
		}
		res, err := suite.MSAResult(in, threads)
		if err != nil {
			r.fail("sim pass %s: %v", name, err)
			continue
		}
		events := 0
		for _, w := range res.Workers {
			events += len(w.Events)
		}
		var spec simhw.RunSpec
		specMs = append(specMs, timeEach(5, time.Millisecond, func(int) { spec = msa.BuildRunSpec(mach, res) })...)
		sim := timeEach(5, time.Millisecond, func(int) { _ = simhw.Simulate(spec) })
		simMs = append(simMs, sim...)
		if events > 0 {
			perEvent = append(perEvent, stats.Median(sim)*1e6/float64(events))
		}
		io := simio.New(mach, 8<<30)
		for db, bytes := range res.Streamed {
			db, bytes := db, bytes
			readUs = append(readUs, timeEach(3, time.Microsecond, func(int) { _ = io.ReadSequential(db, bytes) })...)
		}
		infUs = append(infUs, timeEach(20, time.Microsecond, func(int) {
			_, _ = simgpu.Inference(mach, suite.Model, in.TotalResidues(), simgpu.InferenceOptions{Threads: threads, WarmStart: true})
		})...)
		checkUs = append(checkUs, timeEach(20, time.Microsecond, func(int) { _ = memest.Check(in, mach, threads) })...)
	}
	r.layer["msa.build_runspec_ms_p50"] = stats.Median(specMs)
	r.layer["simhw.simulate_ms_p50"] = stats.Median(simMs)
	r.layer["simhw.host_ns_per_event"] = stats.Median(perEvent)
	r.layer["simio.read_seq_us_p50"] = stats.Median(readUs)
	r.layer["simgpu.inference_us_p50"] = stats.Median(infUs)
	r.layer["memest.check_us"] = stats.Median(checkUs)

	if in, err := inputs.ByName(names[0]); err == nil {
		var g *xla.Graph
		t0 := time.Now()
		g = xla.BuildInferenceGraph(suite.Model.PF, suite.Model.DF, in.TotalResidues(), suite.Model.Recycles)
		r.layer["xla.build_graph_ms"] = ms(time.Since(t0))
		t0 = time.Now()
		if _, err := xla.Compile(g, metering.Nop{}); err == nil {
			r.layer["xla.compile_ms"] = ms(time.Since(t0))
		}
		r.layer["xla.graph_nodes"] = float64(len(g.Ops))
	}
}

// cachePass times the memory tier's micro-operations on the workload's
// own keys and payload sizes.
func (r *run) cachePass(c *cache.Cache) {
	type entry struct {
		key  string
		val  any
		size int64
	}
	var entries []entry
	c.Range(func(key string, val any, size int64) bool {
		entries = append(entries, entry{key, val, size})
		return true
	})
	if len(entries) == 0 {
		return
	}
	// A private copy, so the timing loops leave the workload's hit
	// counters alone.
	twin := cache.New(0)
	for _, e := range entries {
		twin.Add(e.key, e.val, e.size)
	}
	const reps = 20000
	r.layer["cache.get_hit_ns"] = nsPerCall(reps, func(i int) { _, _ = twin.Get(entries[i%len(entries)].key) })
	absent := func() (any, int64, error) { return nil, 0, os.ErrNotExist }
	r.layer["cache.get_or_compute_hit_ns"] = nsPerCall(reps, func(i int) {
		_, _, _ = twin.GetOrCompute(entries[i%len(entries)].key, absent)
	})
	// Every Add into a tier one entry wide evicts the previous entry.
	small := cache.New(entries[0].size)
	r.layer["cache.add_evict_us"] = nsPerCall(2000, func(i int) {
		e := entries[i%len(entries)]
		small.Add(e.key, e.val, entries[0].size)
	}) / 1e3
}

// diskPass times the disk tier on the workload's real payloads: crash-safe
// puts, verified gets, and a reopen that replays the journal.
func (r *run) diskPass(store *chainStore) error {
	dir, err := os.MkdirTemp("", "afbench-disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := cachedisk.Open(cachedisk.Config{Dir: dir})
	if err != nil {
		return err
	}
	var keys []string
	var payloads [][]byte
	for fp, cc := range store.chains {
		if b, err := cc.Encode(); err == nil {
			keys = append(keys, cache.Key("bench-chain", fp))
			payloads = append(payloads, b)
		}
	}
	put := timeEach(len(keys), time.Millisecond, func(i int) { _ = disk.Put(keys[i], codecGob, payloads[i]) })
	get := timeEach(len(keys), time.Millisecond, func(i int) { _, _, _ = disk.Get(keys[i]) })
	if err := disk.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	disk, err = cachedisk.Open(cachedisk.Config{Dir: dir})
	if err != nil {
		return err
	}
	r.layer["cachedisk.open_ms"] = ms(time.Since(t0))
	r.layer["cachedisk.put_ms_p50"] = stats.Median(put)
	r.layer["cachedisk.get_ms_p50"] = stats.Median(get)
	return disk.Close()
}

// kernelPass runs the tensor, pairformer and diffusion kernels at fixed
// reduced sizes. No product path runs them end to end, so they have arms
// here and no workload; operation counts come from the shapes.
func (r *run) kernelPass() {
	pool := parallel.ForWorkers(threads)
	const dim = 192
	a, b, dst := tensor.New(dim, dim), tensor.New(dim, dim), tensor.New(dim, dim)
	src := rng.New(11)
	for i := range a.Data {
		a.Data[i], b.Data[i] = float32(src.NormFloat64()), float32(src.NormFloat64())
	}
	mm := timeEach(10, time.Millisecond, func(int) { _ = tensor.MatMulInto(dst, a, b, pool) })
	if m := stats.Median(mm); m > 0 {
		r.layer["tensor.matmul_gflops"] = tensor.MatMulFlops(dim, dim, dim) / (m * 1e-3) / 1e9
	}

	const tokens = 48
	pcfg := pairformer.Config{Blocks: 1, PairDim: 16, SingleDim: 32, Heads: 2, HeadDim: 8, TriHidden: 16, TransMult: 2}
	if blk, err := pairformer.NewBlock(pcfg, src.Split(1)); err == nil {
		state := pairformer.RandomState(pcfg, tokens, src.Split(2))
		r.layer["pairformer.block_ms"] = stats.Median(timeEach(5, time.Millisecond, func(int) { _ = blk.Apply(state, pool) }))
	}
	dcfg := diffusion.Config{Samples: 1, Steps: 12, TokenDim: 32, AtomDim: 16, AtomsPerToken: 4, AtomWindow: 12,
		GlobalLayers: 2, LocalEncLayers: 2, LocalDecLayers: 2, Heads: 2}
	if den, err := diffusion.NewDenoiser(dcfg, src.Split(3)); err == nil {
		coords := tensor.New(tokens*dcfg.AtomsPerToken, 3)
		for i := range coords.Data {
			coords.Data[i] = float32(src.NormFloat64())
		}
		r.layer["diffusion.denoise_step_ms"] = stats.Median(timeEach(10, time.Millisecond, func(int) { _ = den.DenoiseStep(coords, 1.0, pool) }))
	}
}
