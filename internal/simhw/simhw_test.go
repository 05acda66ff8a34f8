package simhw

import (
	"testing"
	"testing/quick"

	"afsysbench/internal/metering"
	"afsysbench/internal/platform"
)

// dpWork models a calc_band-like function: strided DP over a multi-MB hot
// set with a shared profile table.
func dpWork(instr uint64, hot, shared uint64) FuncWork {
	return FuncWork{
		Func:           "calc_band_9",
		Instructions:   instr,
		Bytes:          instr * 4,
		Branches:       instr / 4,
		BranchMissRate: 0.004,
		Pattern:        metering.Strided,
		HotBytes:       hot,
		SharedHotBytes: shared,
	}
}

func streamWork(bytes uint64) FuncWork {
	return FuncWork{
		Func:         "copy_to_iter",
		Instructions: bytes / 2,
		Bytes:        2 * bytes,
		Pattern:      metering.Sequential,
		StreamBytes:  bytes,
		HotBytes:     0,
	}
}

func spec(m platform.Machine, nThreads int, funcs ...FuncWork) RunSpec {
	threads := make([]ThreadWork, nThreads)
	for i := range threads {
		threads[i] = ThreadWork{Funcs: funcs}
	}
	return RunSpec{Machine: m, Threads: threads}
}

func TestCountersHelpers(t *testing.T) {
	c := Counters{
		Instructions: 1000, Cycles: 500, Loads: 400, L1Misses: 4,
		LLCRefs: 100, LLCMisses: 56, TLBRefs: 400, TLBMisses: 2,
		Branches: 100, BranchMisses: 1,
	}
	if c.IPC() != 2 {
		t.Errorf("IPC = %v", c.IPC())
	}
	if c.L1MissPct() != 1 {
		t.Errorf("L1 miss pct = %v", c.L1MissPct())
	}
	if c.LLCMissPct() != 56 {
		t.Errorf("LLC miss pct = %v", c.LLCMissPct())
	}
	if c.DTLBMissPct() != 0.5 {
		t.Errorf("dTLB miss pct = %v", c.DTLBMissPct())
	}
	if c.BranchMissPct() != 1 {
		t.Errorf("branch miss pct = %v", c.BranchMissPct())
	}
	if c.CacheMissMPKI() != 56 {
		t.Errorf("MPKI = %v", c.CacheMissMPKI())
	}
	var zero Counters
	if zero.IPC() != 0 || zero.LLCMissPct() != 0 || zero.CacheMissMPKI() != 0 {
		t.Error("zero counters must not divide by zero")
	}
	var agg Counters
	agg.Add(c)
	agg.Add(c)
	if agg.Instructions != 2000 || agg.LLCMisses != 112 {
		t.Error("Add wrong")
	}
}

func TestSimulateBasicSanity(t *testing.T) {
	res := Simulate(spec(platform.Server(), 1, dpWork(1e9, 40<<20, 1<<20)))
	if res.Seconds <= 0 {
		t.Fatal("non-positive simulated time")
	}
	ipc := res.Aggregate.IPC()
	if ipc <= 1.2 || ipc > platform.Server().CPU.BaseIPC {
		t.Errorf("IPC = %v out of plausible range", ipc)
	}
	if res.ClockGHz != platform.Server().CPU.MaxClockGHz {
		t.Error("single-thread run must use max boost clock")
	}
}

func TestMoreInstructionsTakeLonger(t *testing.T) {
	a := Simulate(spec(platform.Desktop(), 1, dpWork(1e8, 1<<20, 0)))
	b := Simulate(spec(platform.Desktop(), 1, dpWork(1e9, 1<<20, 0)))
	if b.Seconds <= a.Seconds {
		t.Errorf("10x instructions not slower: %v vs %v", a.Seconds, b.Seconds)
	}
}

func TestIntelVsAMDLLCContrast(t *testing.T) {
	// The 2PV7 contrast of Table III: hot set between the two LLC sizes
	// (30 MiB < hot < 64 MiB). Intel must show a high, roughly flat LLC
	// miss rate; AMD must start near zero and climb steeply with threads.
	work := func() []FuncWork {
		return []FuncWork{dpWork(1e9, 44<<20, 2<<20), streamWork(1 << 26)}
	}
	intel1 := Simulate(spec(platform.Server(), 1, work()...))
	intel6 := Simulate(spec(platform.Server(), 6, work()...))
	amd1 := Simulate(spec(platform.Desktop(), 1, work()...))
	amd6 := Simulate(spec(platform.Desktop(), 6, work()...))

	i1, i6 := intel1.Aggregate.LLCMissPct(), intel6.Aggregate.LLCMissPct()
	a1, a6 := amd1.Aggregate.LLCMissPct(), amd6.Aggregate.LLCMissPct()

	if i1 < 30 {
		t.Errorf("Intel 1T LLC miss = %.1f%%, want high (small LLC overwhelmed)", i1)
	}
	if ratio := i6 / i1; ratio < 0.7 || ratio > 1.5 {
		t.Errorf("Intel LLC miss not flat: %.1f%% -> %.1f%%", i1, i6)
	}
	if a1 > 15 {
		t.Errorf("AMD 1T LLC miss = %.1f%%, want low (large LLC holds hot set)", a1)
	}
	if a6 < 2*a1+10 {
		t.Errorf("AMD LLC miss must climb with threads: %.1f%% -> %.1f%%", a1, a6)
	}
}

func TestTLBContrast(t *testing.T) {
	// Table III: Intel dTLB misses negligible, AMD substantial for strided
	// multi-MB hot sets.
	w := dpWork(1e9, 40<<20, 0)
	intel := Simulate(spec(platform.Server(), 4, w))
	amd := Simulate(spec(platform.Desktop(), 4, w))
	if got := intel.Aggregate.DTLBMissPct(); got > 0.1 {
		t.Errorf("Intel dTLB miss = %v%%, want ~0", got)
	}
	if got := amd.Aggregate.DTLBMissPct(); got < 5 {
		t.Errorf("AMD dTLB miss = %v%%, want substantial", got)
	}
}

func TestRegularityReducesTLBAndCachePressure(t *testing.T) {
	w := dpWork(1e9, 40<<20, 0)
	irregular := Simulate(spec(platform.Desktop(), 4, w))
	w.Regularity = 0.7
	regular := Simulate(spec(platform.Desktop(), 4, w))
	if regular.Aggregate.TLBMisses >= irregular.Aggregate.TLBMisses {
		t.Error("regularity must reduce TLB misses")
	}
	if regular.Aggregate.L1Misses >= irregular.Aggregate.L1Misses {
		t.Error("regularity must reduce cache misses")
	}
}

func TestSharedHotAmortizesAcrossThreads(t *testing.T) {
	private := dpWork(1e9, 40<<20, 0)
	shared := dpWork(1e9, 40<<20, 40<<20)
	rp := Simulate(spec(platform.Server(), 6, private))
	rs := Simulate(spec(platform.Server(), 6, shared))
	if rs.Aggregate.LLCMisses >= rp.Aggregate.LLCMisses {
		t.Errorf("shared hot set must miss less: %d vs %d", rs.Aggregate.LLCMisses, rp.Aggregate.LLCMisses)
	}
}

func TestBranchQualityContrast(t *testing.T) {
	w := dpWork(1e9, 1<<20, 0)
	intel := Simulate(spec(platform.Server(), 1, w))
	amd := Simulate(spec(platform.Desktop(), 1, w))
	if intel.Aggregate.BranchMissPct() >= amd.Aggregate.BranchMissPct() {
		t.Error("Intel branch miss rate must be lower (Table III)")
	}
}

func TestPageFaultsFromAllocation(t *testing.T) {
	w := FuncWork{Func: "fill_insert", Instructions: 1e6, Bytes: 1e6, Allocated: 40 << 20}
	res := Simulate(spec(platform.Server(), 1, w))
	want := uint64(40<<20) / 4096
	if res.Aggregate.PageFaults != want {
		t.Errorf("page faults = %d, want %d", res.Aggregate.PageFaults, want)
	}
}

func TestSerialSectionAdds(t *testing.T) {
	base := spec(platform.Server(), 2, dpWork(1e8, 1<<20, 0))
	withSerial := base
	withSerial.SerialInstructions = 4e9
	a, b := Simulate(base), Simulate(withSerial)
	if b.Seconds <= a.Seconds {
		t.Error("serial instructions must add time")
	}
	if b.SerialSeconds <= 0 {
		t.Error("serial seconds not reported")
	}
}

func TestExtraSecondsAdds(t *testing.T) {
	s := spec(platform.Server(), 1, dpWork(1e8, 1<<20, 0))
	s.ExtraSeconds = 3.5
	res := Simulate(s)
	if res.Seconds < 3.5 {
		t.Error("extra seconds not included")
	}
}

func TestBandwidthSaturationStretchesTime(t *testing.T) {
	// Enormous streaming traffic must make the run bandwidth-bound.
	s := spec(platform.Desktop(), 8, streamWork(1<<33))
	res := Simulate(s)
	if res.BandwidthUtil < 0.5 {
		t.Errorf("bandwidth util = %v, expected high", res.BandwidthUtil)
	}
	floor := float64(8) * float64(uint64(1)<<33) / (platform.Desktop().CPU.MemBandwidthGBs * 1e9)
	if res.ParallelSeconds < floor*0.9 {
		t.Errorf("parallel time %v below bandwidth floor %v", res.ParallelSeconds, floor)
	}
}

func TestPerFuncAttribution(t *testing.T) {
	res := Simulate(spec(platform.Server(), 2, dpWork(1e8, 1<<20, 0), streamWork(1<<24)))
	if len(res.PerFunc) != 2 {
		t.Fatalf("PerFunc has %d entries", len(res.PerFunc))
	}
	if res.PerFunc["calc_band_9"].Instructions == 0 || res.PerFunc["copy_to_iter"].Instructions == 0 {
		t.Error("per-function instruction attribution missing")
	}
}

func TestQuickMoreInstructionsNeverFaster(t *testing.T) {
	f := func(seed uint64, extraRaw uint32) bool {
		base := uint64(1e7) + uint64(seed%1e6)
		extra := uint64(extraRaw % 1e8)
		a := Simulate(spec(platform.Server(), 2, dpWork(base, 8<<20, 0)))
		b := Simulate(spec(platform.Server(), 2, dpWork(base+extra, 8<<20, 0)))
		return b.Seconds >= a.Seconds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountersInternallyConsistent(t *testing.T) {
	f := func(seed uint64, hotRaw uint32) bool {
		hot := uint64(hotRaw%64+1) << 20
		res := Simulate(spec(platform.Desktop(), 3, dpWork(2e8, hot, hot/4), streamWork(1<<24)))
		c := res.Aggregate
		// Miss flows can only shrink down the hierarchy.
		return c.L1Misses <= c.Loads &&
			c.L2Misses <= c.L2Refs &&
			c.LLCMisses <= c.LLCRefs+uint64(1) &&
			c.BranchMisses <= c.Branches &&
			c.Cycles > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAggregateWorkIndependentOfThreads(t *testing.T) {
	// Splitting the same total work across more threads must keep the
	// aggregate instruction count identical.
	total := uint64(8e8)
	ref := Simulate(spec(platform.Server(), 1, dpWork(total, 16<<20, 0))).Aggregate.Instructions
	for _, threads := range []int{2, 4, 8} {
		per := dpWork(total/uint64(threads), 16<<20, 0)
		got := Simulate(spec(platform.Server(), threads, per)).Aggregate.Instructions
		if got != ref {
			t.Fatalf("%d threads: aggregate instructions %d != %d", threads, got, ref)
		}
	}
}
