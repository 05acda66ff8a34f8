package simhw

import (
	"math"

	"afsysbench/internal/metering"
	"afsysbench/internal/platform"
)

// FuncWork is one function's contribution to a thread's workload: measured
// instruction/traffic counts plus modeled (paper-scale) footprints.
type FuncWork struct {
	Func string

	// Measured from the real kernels (possibly scaled to paper volume).
	Instructions   uint64
	Bytes          uint64 // total data traffic (reads+writes), including reuse
	Branches       uint64
	BranchMissRate float64
	Pattern        metering.Pattern

	// Modeled footprints. HotBytes is the reused working set these
	// accesses cycle over; SharedHotBytes (≤ HotBytes) is the portion
	// shared read-only between threads (profiles, seed indexes);
	// StreamBytes is touched-once traffic (database streaming).
	HotBytes       uint64
	SharedHotBytes uint64
	StreamBytes    uint64

	// Regularity in [0,1] discounts TLB and cache pressure for highly
	// repetitive access footprints (the promo sample's poly-Q DP columns
	// concentrate on few pages; Section V-B2b).
	Regularity float64

	// Allocated bytes trigger first-touch page faults (Table V's
	// _M_fill_insert behavior).
	Allocated uint64
}

// ThreadWork is one worker thread's function mix.
type ThreadWork struct {
	Funcs []FuncWork
}

// RunSpec describes a parallel region to simulate on a machine.
type RunSpec struct {
	Machine platform.Machine
	Threads []ThreadWork
	// Reader is the serialized input pipeline (HMMER's master thread:
	// copy_to_iter/addbuf/seebuf). It overlaps the workers but cannot be
	// parallelized, so it bounds speedup and — because it suffers the
	// workers' LLC contention — degrades as threads are added.
	Reader []FuncWork
	// SerialInstructions execute before/after the parallel region on one
	// thread (merge phases, profile rebuilds).
	SerialInstructions uint64
	// SerialStreamBytes is touched-once traffic in the serial section.
	SerialStreamBytes uint64
	// ExtraSeconds adds fixed time outside the CPU model (e.g. disk time
	// computed by simio).
	ExtraSeconds float64
}

// Result is the outcome of simulating a RunSpec.
type Result struct {
	Seconds          float64
	ParallelSeconds  float64
	ReaderSeconds    float64
	SerialSeconds    float64
	Aggregate        Counters
	PerFunc          map[string]Counters
	PerThreadSeconds []float64
	// BandwidthUtil is the DRAM bandwidth utilization of the parallel
	// region in [0,1+]; values near 1 mean the run was bandwidth-bound.
	BandwidthUtil float64
	// ClockGHz is the sustained core clock used.
	ClockGHz float64
}

// Model constants. These are the calibration surface of the CPU model; they
// are shared by both platforms — everything platform-specific comes from
// platform.CPU fields.
const (
	cacheLine = 64
	pageSize  = 4096
	// avgAccessBytes converts byte traffic into reference counts.
	avgAccessBytes = 8

	// L1 capacity-miss pattern multipliers, scaled by the CPU's
	// L1MissFactor character (strided = 1x).
	l1SeqFactor    = 0.15
	l1StrideFactor = 1.0
	l1RandFactor   = 8.0

	// L2 capacity-miss coefficients (given an L1 miss).
	l2SeqFactor    = 0.60
	l2StrideFactor = 0.85
	l2RandFactor   = 1.00

	// LLC contention: streaming claims this much residency per thread;
	// the hot miss fraction ramps steeply (square-root of the overflow
	// fraction, the LRU-on-cyclic-reuse regime) up to a temporal-locality
	// cap.
	llcStreamWindowBytes = 2 << 20
	llcHotMissCap        = 0.80
	llcMinCapacityFrac   = 0.20

	// TLB miss coefficients per pattern (fraction of references that step
	// outside the mapped reach).
	tlbSeqFactor    = float64(avgAccessBytes) / pageSize
	tlbStrideFactor = 0.35
	tlbRandFactor   = 0.70

	// Stall overlap: fraction of each level's latency exposed after
	// out-of-order overlap and memory-level parallelism. These are small:
	// Table III itself shows IPC holding near 3.5 on Intel despite ~31
	// cache misses per kilo-instruction, i.e. the hardware overlaps almost
	// all miss latency on this workload.
	l2StallOverlap   = 0.02
	llcStallOverlap  = 0.01
	dramStallOverlap = 0.018
	// stridePrefetchFactor is how much of the sequential prefetcher's
	// benefit strided streams still get.
	stridePrefetchFactor = 0.75

	pageFaultCycles = 1400

	// readerContentionPerThread inflates the serialized reader pipeline's
	// cycle count per active worker (shared-LLC and queue interference).
	readerContentionPerThread = 0.15
)

func patternFactor(p metering.Pattern, seqF, strideF, randF float64) float64 {
	switch p {
	case metering.Sequential:
		return seqF
	case metering.Strided:
		return strideF
	default:
		return randF
	}
}

// capacityMissFrac returns the miss fraction for references cycling over a
// hot set of ws bytes against a cache of cap bytes, clamped to [0, 1].
func capacityMissFrac(ws, capacity uint64, factor float64) float64 {
	if ws == 0 || ws <= capacity {
		return 0
	}
	f := factor * (1 - float64(capacity)/float64(ws))
	if f > 1 {
		return 1
	}
	return f
}

// Simulate runs the analytical CPU model over the spec.
func Simulate(spec RunSpec) Result {
	cpu := spec.Machine.CPU
	t := len(spec.Threads)
	if t == 0 {
		t = 1
	}
	clock := cpu.ClockGHz(t)
	hz := clock * 1e9

	// LLC contention state shared by all threads.
	hotShared, hotPrivate := footprints(spec.Threads)
	ceff := float64(cpu.LLCBytes) - float64(t)*llcStreamWindowBytes
	if min := float64(cpu.LLCBytes) * llcMinCapacityFrac; ceff < min {
		ceff = min
	}
	hotTotal := hotShared + float64(t)*hotPrivate
	hotMissFrac := cpu.LLCBaseMissFrac
	if hotTotal > ceff {
		frac := llcHotMissCap * math.Sqrt((hotTotal-ceff)/hotTotal)
		if frac > hotMissFrac {
			hotMissFrac = frac
		}
	}
	if hotMissFrac > llcHotMissCap && cpu.LLCBaseMissFrac < llcHotMissCap {
		hotMissFrac = llcHotMissCap
	}

	res := Result{
		PerFunc:          make(map[string]Counters),
		PerThreadSeconds: make([]float64, len(spec.Threads)),
		ClockGHz:         clock,
	}

	var totalDRAMBytes float64
	var maxThreadSeconds float64
	for ti, tw := range spec.Threads {
		var threadCycles float64
		for _, fw := range tw.Funcs {
			c := simulateFunc(cpu, fw, t, hotMissFrac)
			res.Aggregate.Add(c)
			pf := res.PerFunc[fw.Func]
			pf.Add(c)
			res.PerFunc[fw.Func] = pf
			threadCycles += float64(c.Cycles)
			totalDRAMBytes += float64(c.DRAMBytes)
		}
		secs := threadCycles / hz
		res.PerThreadSeconds[ti] = secs
		if secs > maxThreadSeconds {
			maxThreadSeconds = secs
		}
	}

	// Reader pipeline: serialized input path overlapping the workers. Its
	// memory behavior suffers the same LLC contention state, so adding
	// workers slows it — once the workers outpace it, total time is
	// reader-bound and grows with thread count (the paper's degradation
	// beyond 4–6 threads, Figures 4–5).
	var readerCycles float64
	for _, fw := range spec.Reader {
		c := simulateFunc(cpu, fw, t, hotMissFrac)
		res.Aggregate.Add(c)
		pf := res.PerFunc[fw.Func]
		pf.Add(c)
		res.PerFunc[fw.Func] = pf
		readerCycles += float64(c.Cycles)
		totalDRAMBytes += float64(c.DRAMBytes)
	}
	// Contending with t workers inflates the reader's effective latency.
	readerCycles *= 1 + readerContentionPerThread*float64(t-1)
	res.ReaderSeconds = readerCycles / hz
	// Pipeline combine: the slower stage bounds throughput and a fraction
	// of the faster stage leaks past the overlap (handoff stalls).
	const overlapLoss = 0.30
	if res.ReaderSeconds > maxThreadSeconds {
		maxThreadSeconds = res.ReaderSeconds + overlapLoss*maxThreadSeconds
	} else {
		maxThreadSeconds += overlapLoss * res.ReaderSeconds
	}

	// DRAM bandwidth: if aggregate traffic exceeds what the memory system
	// can deliver in the compute-bound time, the region becomes
	// bandwidth-bound and stretches; near saturation queueing inflates
	// time smoothly.
	parallel := maxThreadSeconds
	if parallel > 0 && totalDRAMBytes > 0 {
		bwSeconds := totalDRAMBytes / (cpu.MemBandwidthGBs * 1e9)
		util := bwSeconds / parallel
		res.BandwidthUtil = util
		switch {
		case util >= 1:
			parallel = bwSeconds * 1.05 // fully bandwidth-bound
		case util > 0.5:
			// Queueing delay grows as utilization approaches 1.
			parallel *= 1 + 0.30*math.Pow((util-0.5)/0.5, 2)
		}
	}
	res.ParallelSeconds = parallel

	// Serial section: single thread at single-core boost.
	serialCycles := float64(spec.SerialInstructions) / cpu.BaseIPC
	serialCycles += float64(spec.SerialStreamBytes) / cacheLine * dramStallOverlap * cpu.MemLatencyNs * cpu.MaxClockGHz * (1 - cpu.PrefetchEfficiency)
	res.SerialSeconds = serialCycles / (cpu.MaxClockGHz * 1e9)
	res.Aggregate.Instructions += spec.SerialInstructions
	res.Aggregate.Cycles += uint64(serialCycles)

	res.Seconds = res.ParallelSeconds + res.SerialSeconds + spec.ExtraSeconds
	return res
}

// footprints derives the modeled hot footprints: shared structures are
// counted once per distinct function name; a thread's private hot set is
// the maximum over its functions (DP arenas are reused across kernels, not
// stacked), averaged across threads.
func footprints(threads []ThreadWork) (shared, privatePerThread float64) {
	sharedByFunc := make(map[string]float64)
	var private float64
	for _, tw := range threads {
		var threadMax float64
		for _, fw := range tw.Funcs {
			if s := float64(fw.SharedHotBytes); s > sharedByFunc[fw.Func] {
				sharedByFunc[fw.Func] = s
			}
			if p := float64(fw.HotBytes) - float64(fw.SharedHotBytes); p > threadMax {
				threadMax = p
			}
		}
		private += threadMax
	}
	for _, s := range sharedByFunc {
		shared += s
	}
	if n := float64(len(threads)); n > 0 {
		private /= n
	}
	return shared, private
}

// simulateFunc computes the counters for one function's work on one thread.
func simulateFunc(cpu platform.CPU, fw FuncWork, nThreads int, llcHotMissFrac float64) Counters {
	var c Counters
	c.Instructions = fw.Instructions
	c.Branches = fw.Branches

	reg := 1 - fw.Regularity

	// Reference counts.
	hotRefs := float64(fw.Bytes) / avgAccessBytes
	streamLines := float64(fw.StreamBytes) / cacheLine
	c.Loads = uint64(hotRefs + float64(fw.StreamBytes)/avgAccessBytes)
	c.TLBRefs = c.Loads

	// L1: hot capacity misses plus one miss per streaming line.
	l1F := patternFactor(fw.Pattern, l1SeqFactor, l1StrideFactor, l1RandFactor) * reg * cpu.L1MissFactor
	l1HotMiss := hotRefs * capacityMissFrac(fw.HotBytes, uint64(cpu.L1DBytes), l1F)
	l1Miss := l1HotMiss + streamLines
	c.L1Misses = uint64(l1Miss)

	// L2.
	c.L2Refs = c.L1Misses
	l2F := patternFactor(fw.Pattern, l2SeqFactor, l2StrideFactor, l2RandFactor)
	l2HotMiss := l1HotMiss * capacityMissFrac(fw.HotBytes, uint64(cpu.L2Bytes), l2F)
	l2Miss := l2HotMiss + streamLines
	c.L2Misses = uint64(l2Miss)

	// LLC: hot misses from the shared-capacity contention model; shared
	// structures amortize their misses across threads (one fetch serves
	// all). Streaming lines always leave the hierarchy.
	c.LLCRefs = c.L2Misses
	sharedFrac := 0.0
	if fw.HotBytes > 0 {
		sharedFrac = float64(fw.SharedHotBytes) / float64(fw.HotBytes)
	}
	privateMiss := l2HotMiss * (1 - sharedFrac) * llcHotMissFrac
	sharedMiss := l2HotMiss * sharedFrac * llcHotMissFrac / float64(nThreads)
	// Streaming lines are compulsory misses, but the prefetchers convert
	// a portion into LLC hits by running ahead of the demand stream; the
	// prefetched lines still cross the DRAM bus.
	streamMiss := streamLines * (1 - 0.35*cpu.PrefetchEfficiency)
	llcMiss := privateMiss + sharedMiss + streamMiss
	c.LLCMisses = uint64(llcMiss)
	c.DRAMBytes = uint64(privateMiss+sharedMiss+streamLines) * cacheLine

	// TLB: references stepping beyond the platform's mapped reach.
	tlbF := patternFactor(fw.Pattern, tlbSeqFactor, tlbStrideFactor, tlbRandFactor) * reg
	tlbMiss := hotRefs * capacityMissFrac(fw.HotBytes, uint64(cpu.TLBReachBytes), tlbF)
	tlbMiss += float64(fw.StreamBytes) / pageSize // one per streamed page
	c.TLBMisses = uint64(tlbMiss)

	// Branches.
	brMissRate := fw.BranchMissRate * cpu.BranchQuality
	if brMissRate > 0.5 {
		brMissRate = 0.5
	}
	c.BranchMisses = uint64(float64(fw.Branches) * brMissRate)

	// Page faults from fresh allocation.
	c.PageFaults = fw.Allocated / pageSize

	// Cycle accounting.
	memLatCycles := cpu.MemLatencyNs * cpu.MaxClockGHz // latency in core cycles
	prefetchHide := 0.0
	switch fw.Pattern {
	case metering.Sequential:
		prefetchHide = cpu.PrefetchEfficiency
	case metering.Strided:
		prefetchHide = cpu.PrefetchEfficiency * stridePrefetchFactor
	}
	cycles := float64(fw.Instructions) / cpu.BaseIPC
	cycles += float64(c.L2Refs) * cpu.L2LatencyCycles * l2StallOverlap
	cycles += float64(c.LLCRefs) * cpu.LLCLatencyCycles * llcStallOverlap
	cycles += llcMiss * memLatCycles * dramStallOverlap * (1 - prefetchHide)
	cycles += tlbMiss * cpu.TLBMissPenaltyCycles
	cycles += float64(c.BranchMisses) * cpu.BranchPenaltyCycles
	cycles += float64(c.PageFaults) * pageFaultCycles
	c.Cycles = uint64(cycles)
	return c
}
