// Disk-chaos mode: afload -chaos-disk drives the persistent chain-cache
// tier through the full disaster sequence and asserts that it can never
// change a served result — the crash-safety gate behind `make chaos-disk`.
//
// The sequence:
//
//  1. a reference pass with no cache at all records the ground-truth
//     result digest of every request;
//  2. phase A runs the trace over a disk tier with a seeded fault storm
//     (torn writes, failed fsyncs, crashes between temp file and rename,
//     silent bit flips, read errors), then spills the memory tier and
//     closes the store — a clean shutdown after a dirty life;
//  3. a clean reopen then refills the tier: whatever the storm destroyed
//     is recomputed and spilled again, so the directory holds a full,
//     healthy set of entries regardless of how the fault budget landed;
//  4. the directory is then vandalized directly: one entry truncated, one
//     bit-flipped, an orphan temp file planted;
//  5. phase B reopens the store (the restart), runs the trace against a
//     cold memory tier, and requires every result to match the reference
//     digest bitwise, with at least one disk hit and every corrupt entry
//     counted and dropped rather than served;
//  6. phase C runs over a store whose every disk operation fails, and
//     requires the breaker to open into memory-only mode with zero failed
//     requests and further disk traffic visibly skipped.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
	"afsysbench/internal/core"
	"afsysbench/internal/resilience"
	"afsysbench/internal/rng"
	"afsysbench/internal/scenario"
	"afsysbench/internal/serve"
)

// chaosDiskFaultSpec is phase A's storm: a bounded budget of every disk
// fault class, so writes tear, fsyncs fail, renames crash mid-commit,
// payloads flip bits after checksumming, and reads error — each a few
// times, leaving the tier mostly functional but never trustworthy.
const chaosDiskFaultSpec = "diskfault:write:2,diskfault:fsync:1,diskfault:rename:1,diskfault:flip:2,diskfault:read:2"

// ChaosDiskReport is the machine-readable outcome of one disk storm.
type ChaosDiskReport struct {
	Seed     uint64 `json:"seed"`
	Requests int    `json:"requests"`

	// Phase A: the faulty life of the store.
	FaultyDone    int              `json:"faulty_done"`
	FaultySpilled int              `json:"faulty_spilled"`
	FaultyDisk    *cachedisk.Stats `json:"faulty_disk,omitempty"`

	// Phase B: the restart over the vandalized directory.
	RestartDone     int              `json:"restart_done"`
	RestartDiskHits int64            `json:"restart_disk_hits"`
	RestartDisk     *cachedisk.Stats `json:"restart_disk,omitempty"`

	// Phase C: the dark disk.
	DarkDone     int              `json:"dark_done"`
	DarkFailed   int              `json:"dark_failed"`
	DarkDegraded bool             `json:"dark_degraded"`
	DarkDisk     *cachedisk.Stats `json:"dark_disk,omitempty"`

	WallSeconds float64 `json:"wall_seconds"`

	scenario.Verdict
}

// chaosDiskPass runs the trace through cfg over the given cache tiers and
// returns the still-running server (the caller spills and stops it), the
// client-side outcome counts and the per-sample result digests. A sample
// whose repeats disagree with each other is an error; one that disagrees
// with the reference is a violation, recorded by the caller via the digest
// comparison.
func chaosDiskPass(o options, suite *core.Suite, cfg serve.Config, trace []string, mem *cache.Cache, disk *cachedisk.Store) (*serve.Server, serve.LoadStats, map[string]string, error) {
	cfg.Cache, cfg.DiskCache = mem, disk
	s := serve.NewWithSuite(suite, cfg)
	s.Start()
	load := scenario.ClosedLoop(scenario.InProc{S: s}, trace, o.concurrency, o.Threads)
	digests := make(map[string]string)
	for _, st := range s.Statuses() {
		if st.State != "done" {
			continue
		}
		res, ok := s.Result(st.ID)
		if !ok {
			s.Stop()
			return nil, load, nil, fmt.Errorf("no result for done job %s", st.ID)
		}
		d := res.Digest()
		if prev, dup := digests[st.Sample]; dup && prev != d {
			s.Stop()
			return nil, load, nil, fmt.Errorf("sample %s nondeterministic within one pass", st.Sample)
		}
		digests[st.Sample] = d
	}
	return s, load, digests, nil
}

// compareDigests records a violation for every sample whose digest differs
// from the reference and every reference sample the pass never completed.
func compareDigests(v *scenario.Verdict, phase string, ref, got map[string]string) {
	for sample, want := range ref {
		d, ok := got[sample]
		if !ok {
			v.Failf("%s: sample %s never completed", phase, sample)
			continue
		}
		if d != want {
			v.Failf("%s: sample %s diverged from reference:\n  want %s\n  got  %s", phase, sample, want, d)
		}
	}
}

// vandalizeStore corrupts the closed store's directory in place: the
// first entry is truncated to half, the second gets a payload bit flip,
// and an orphan temp file (a simulated mid-write crash) is planted. At
// least three entries must exist so one healthy entry survives to prove
// the disk read path.
func vandalizeStore(dir string) error {
	ents, err := filepath.Glob(filepath.Join(dir, "objects", "*.ent"))
	if err != nil {
		return err
	}
	if len(ents) < 3 {
		return fmt.Errorf("only %d entries on disk; the gate needs >= 3 distinct chains (raise -ppi or widen -mix)", len(ents))
	}
	sort.Strings(ents)
	b, err := os.ReadFile(ents[0])
	if err != nil {
		return err
	}
	if err := os.WriteFile(ents[0], b[:len(b)/2], 0o644); err != nil {
		return err
	}
	b, err = os.ReadFile(ents[1])
	if err != nil {
		return err
	}
	b[len(b)-1] ^= 0x01
	if err := os.WriteFile(ents[1], b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "objects", "crash.ent.tmp"), []byte("torn"), 0o644)
}

// runChaosDisk executes the disk storm and returns an error (after
// printing the report and the reproduction line) if any invariant broke.
func runChaosDisk(o options, out *os.File) error {
	trace, err := scenario.Trace(o.mix, o.ppi, o.n, o.seed)
	if err != nil {
		return err
	}
	suite, err := core.NewSuite()
	if err != nil {
		return err
	}
	// The gate owns both cache tiers — it opens, closes and vandalizes the
	// disk itself — so the flags wire everything but them.
	f := o.Flags
	f.CacheMB, f.CacheDir = 0, ""
	cfg, err := f.Config()
	if err != nil {
		return err
	}
	dir := o.CacheDir
	if dir == "" {
		dir, err = os.MkdirTemp("", "afload-chaos-disk-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}

	rep := ChaosDiskReport{Seed: o.seed, Requests: len(trace)}
	start := time.Now()

	// Ground truth: no cache anywhere.
	sRef, _, refDigests, err := chaosDiskPass(o, suite, cfg, trace, nil, nil)
	if err != nil {
		return err
	}
	sRef.Stop()

	// Phase A: the faulty life.
	faults, err := resilience.ParseFaults(chaosDiskFaultSpec)
	if err != nil {
		return err
	}
	store, err := cachedisk.Open(cachedisk.Config{
		Dir:      dir,
		Injector: resilience.NewInjector(faults, rng.New(o.seed).Split(0xD15C)),
	})
	if err != nil {
		return err
	}
	sA, stA, digA, err := chaosDiskPass(o, suite, cfg, trace, cache.New(0), store)
	if err != nil {
		return err
	}
	rep.FaultyDone = stA.Completed
	compareDigests(&rep.Verdict, "phase A (faulty disk)", refDigests, digA)
	rep.FaultySpilled = sA.SpillCache()
	sA.Stop()
	dsA := store.Stats()
	rep.FaultyDisk = &dsA
	if err := store.Close(); err != nil {
		return err
	}
	if rep.FaultySpilled == 0 {
		rep.Failf("phase A: nothing spilled to disk; later phases prove nothing")
	}

	// Refill: a clean reopen recomputes whatever the storm destroyed and
	// spills again, leaving a full healthy entry set. Its results must
	// match the reference too — the half-damaged tier serves what it can
	// and recomputes the rest.
	store, err = cachedisk.Open(cachedisk.Config{Dir: dir})
	if err != nil {
		return err
	}
	sR, _, digR, err := chaosDiskPass(o, suite, cfg, trace, cache.New(0), store)
	if err != nil {
		return err
	}
	compareDigests(&rep.Verdict, "refill (post-storm reopen)", refDigests, digR)
	sR.SpillCache()
	sR.Stop()
	if err := store.Close(); err != nil {
		return err
	}

	// Vandalize the directory, then restart.
	if err := vandalizeStore(dir); err != nil {
		return err
	}
	store, err = cachedisk.Open(cachedisk.Config{Dir: dir})
	if err != nil {
		return err
	}
	sB, stB, digB, err := chaosDiskPass(o, suite, cfg, trace, cache.New(0), store)
	if err != nil {
		return err
	}
	rep.RestartDone = stB.Completed
	compareDigests(&rep.Verdict, "phase B (restart)", refDigests, digB)
	rep.RestartDiskHits = sB.Metrics().Get("msa_chain_disk_hits")
	sB.Stop()
	dsB := store.Stats()
	rep.RestartDisk = &dsB
	if err := store.Close(); err != nil {
		return err
	}
	if rep.RestartDone != len(trace) {
		rep.Failf("phase B: %d of %d requests done over the vandalized tier", rep.RestartDone, len(trace))
	}
	if rep.RestartDiskHits == 0 {
		rep.Failf("phase B: no chain served from disk after restart")
	}
	if rep.RestartDisk.CorruptDropped+rep.RestartDisk.JournalTailDropped == 0 {
		rep.Failf("phase B: vandalized entries were not detected and dropped")
	}
	if rep.RestartDisk.OrphansDropped == 0 {
		rep.Failf("phase B: the planted mid-write orphan was not swept")
	}

	// Phase C: every disk operation fails; the tier must get out of the
	// way.
	dark, err := resilience.ParseFaults("diskfault:*:1000000")
	if err != nil {
		return err
	}
	darkDir, err := os.MkdirTemp("", "afload-chaos-dark-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(darkDir)
	store, err = cachedisk.Open(cachedisk.Config{
		Dir:              darkDir,
		Injector:         resilience.NewInjector(dark, rng.New(o.seed).Split(0xDA4C)),
		BreakerThreshold: 3,
	})
	if err != nil {
		return err
	}
	sC, stC, digC, err := chaosDiskPass(o, suite, cfg, trace, cache.New(0), store)
	if err != nil {
		return err
	}
	rep.DarkDone, rep.DarkFailed = stC.Completed, stC.Failed
	compareDigests(&rep.Verdict, "phase C (dark disk)", refDigests, digC)
	// The first spill's write failures trip the breaker; the second must
	// be skipped outright while it is open.
	sC.SpillCache()
	sC.SpillCache()
	sC.Stop()
	dsC := store.Stats()
	rep.DarkDisk = &dsC
	rep.DarkDegraded = store.Degraded()
	store.Close()
	if rep.DarkFailed > 0 {
		rep.Failf("phase C: %d requests failed under a dark disk (must degrade, never fail)", rep.DarkFailed)
	}
	if !rep.DarkDegraded {
		rep.Failf("phase C: breaker never opened into memory-only mode")
	}
	if rep.DarkDisk.DegradedOps == 0 {
		rep.Failf("phase C: degraded operations were not counted")
	}

	rep.WallSeconds = time.Since(start).Seconds()
	printChaosDisk(out, rep)
	repro := fmt.Sprintf("afload -chaos-disk -seed %d -concurrency %d -threads %d", o.seed, o.concurrency, o.Threads)
	if o.ppi > 0 {
		repro += fmt.Sprintf(" -ppi %d", o.ppi)
	} else {
		repro += fmt.Sprintf(" -n %d -mix %s", o.n, o.mix)
	}
	return rep.Finish(out, "chaos-disk", rep, o.jsonPath, repro)
}

func printChaosDisk(w *os.File, rep ChaosDiskReport) {
	fmt.Fprintf(w, "chaos-disk seed %d: %d req in %.1fs | faulty life: %d done, %d spilled | restart: %d done, %d disk hits, %d corrupt dropped, %d orphans swept | dark disk: %d done, %d failed, degraded=%v\n",
		rep.Seed, rep.Requests, rep.WallSeconds,
		rep.FaultyDone, rep.FaultySpilled,
		rep.RestartDone, rep.RestartDiskHits,
		rep.RestartDisk.CorruptDropped, rep.RestartDisk.OrphansDropped,
		rep.DarkDone, rep.DarkFailed, rep.DarkDegraded)
}
