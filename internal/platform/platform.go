// Package platform encodes the two evaluation systems from Table I of the
// paper — the Intel Xeon + H100 "Server" and the AMD Ryzen + RTX 4080
// "Desktop" — plus the variants used in specific experiments (CXL memory
// expansion on the server, the 128 GiB DRAM upgrade the desktop needed for
// the 6QNR sample). These configurations parameterize the CPU, GPU and
// storage models in simhw, simgpu and simio.
package platform

import "fmt"

// Byte-size helpers.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)

// CPU describes a processor: the architectural facts from Table I plus the
// microarchitectural character parameters the paper's profiling exposes
// (Intel's compute-centric pipeline vs AMD's memory-centric cache hierarchy,
// Section V-B2a).
type CPU struct {
	Name    string
	Vendor  string // "Intel" or "AMD"
	Cores   int
	Threads int

	BaseClockGHz float64
	MaxClockGHz  float64

	// Cache hierarchy. L1D and L2 are per-core; LLC is shared.
	L1DBytes int64
	L2Bytes  int64
	LLCBytes int64

	// BaseIPC is the sustainable retirement rate on branch-heavy integer
	// DP code when no memory stalls occur.
	BaseIPC float64

	// BranchQuality scales workload-intrinsic misprediction rates:
	// < 1 means the predictor learns the pattern better than baseline.
	BranchQuality float64
	// BranchPenaltyCycles is the pipeline refill cost per mispredict.
	BranchPenaltyCycles float64

	// TLBReachBytes is the effective no-miss address reach of the data TLB
	// path that the platform's "dTLB miss" counter measures. The Intel
	// number reflects the STLB with transparent huge pages (the paper sees
	// 0.00–0.01% dTLB misses); the AMD number reflects the small first
	// level dTLB that uProf reports (the paper sees 6–37%).
	TLBReachBytes int64
	// TLBMissPenaltyCycles is the stall per miss at that level.
	TLBMissPenaltyCycles float64

	// Latency of each hierarchy level in cycles (load-to-use).
	L2LatencyCycles  float64
	LLCLatencyCycles float64
	// MemLatencyNs is DRAM load latency in nanoseconds (clock independent).
	MemLatencyNs float64

	// MemBandwidthGBs is the peak DRAM bandwidth in GB/s.
	MemBandwidthGBs float64

	// PrefetchEfficiency is the fraction of sequential-stream miss latency
	// the hardware prefetchers hide.
	PrefetchEfficiency float64

	// L1MissFactor is the strided-access L1D miss fraction character of
	// the core (op-cache, L1 size and L2->L1 prefetch differences give
	// Intel the lower rate in Table III).
	L1MissFactor float64

	// LLCBaseMissFrac is the floor miss fraction for reused data at the
	// LLC — the non-inclusive/victim behavior of a small LLC that keeps
	// Intel's measured miss rate high and flat even at one thread
	// (Table III), while AMD's large unified L3 starts near zero.
	LLCBaseMissFrac float64

	// AllCoreClockFactor is the sustained all-core boost as a fraction of
	// MaxClockGHz (thermal/power limits bite as more cores activate).
	AllCoreClockFactor float64
}

// ClockGHz returns the sustained clock when active cores are busy.
// One active core runs at max boost; the clock decays linearly toward the
// all-core sustained point as more cores light up.
func (c CPU) ClockGHz(activeCores int) float64 {
	if activeCores <= 1 {
		return c.MaxClockGHz
	}
	if activeCores > c.Cores {
		activeCores = c.Cores
	}
	allCore := c.MaxClockGHz * c.AllCoreClockFactor
	frac := float64(activeCores-1) / float64(c.Cores-1)
	clk := c.MaxClockGHz - (c.MaxClockGHz-allCore)*frac
	if clk < c.BaseClockGHz {
		clk = c.BaseClockGHz
	}
	return clk
}

// GPU describes an accelerator card.
type GPU struct {
	Name     string
	MemBytes int64
	// FP32TFlops is peak single-precision throughput.
	FP32TFlops float64
	// TensorTFlops is peak matrix-engine throughput (BF16/TF32 class), the
	// rate attention/matmul kernels approach.
	TensorTFlops float64
	// MemBandwidthGBs is device memory bandwidth.
	MemBandwidthGBs float64
	// UnifiedMemPenalty multiplies kernel time when the footprint spills
	// over device memory via unified memory (the 6QNR case on RTX 4080).
	UnifiedMemPenalty float64
	// InitSeconds is the device init cost (driver, context, memory pools)
	// on a cold start.
	InitSeconds float64
	// CompileFactor scales XLA compile time for this device generation
	// (more autotuning candidates on newer architectures).
	CompileFactor float64
	// Devices is the number of identical accelerator cards installed; zero
	// means one (both paper platforms are single-GPU). The serving
	// scheduler sizes its inference pool to it.
	Devices int
}

// Storage describes the NVMe device.
type Storage struct {
	Name            string
	SeqReadMBs      float64 // sequential read throughput
	RandReadIOPS    float64
	ReadLatencyMs   float64 // idle read latency (the paper's r_await 0.1–0.2 ms)
	MaxQueuedUtilPc float64 // utilization ceiling before latency climbs
}

// Machine is one evaluation platform.
type Machine struct {
	Name      string
	CPU       CPU
	DRAMBytes int64
	// CXLBytes is optional expansion memory (slower tier); zero if absent.
	CXLBytes int64
	// CXLLatencyFactor multiplies DRAM latency for CXL-resident data.
	CXLLatencyFactor float64
	GPU              GPU
	Storage          Storage
}

// TotalMemBytes returns DRAM plus CXL capacity.
func (m Machine) TotalMemBytes() int64 { return m.DRAMBytes + m.CXLBytes }

// Server returns the Intel Xeon Gold 5416S + H100 platform of Table I
// (without the optional CXL expander; see ServerWithCXL).
func Server() Machine {
	return Machine{
		Name: "Server",
		CPU: CPU{
			Name:                 "Intel Xeon Gold 5416S",
			Vendor:               "Intel",
			Cores:                16,
			Threads:              32,
			BaseClockGHz:         2.0,
			MaxClockGHz:          4.0,
			L1DBytes:             48 * KiB, // 80 KB L1 total per core = 48 KB data + 32 KB instr
			L2Bytes:              2 * MiB,
			LLCBytes:             30 * MiB,
			BaseIPC:              3.9,
			BranchQuality:        0.55,
			BranchPenaltyCycles:  17,
			TLBReachBytes:        3 * GiB, // STLB + THP: effectively unbounded
			TLBMissPenaltyCycles: 40,
			L2LatencyCycles:      14,
			LLCLatencyCycles:     48,
			MemLatencyNs:         95,
			MemBandwidthGBs:      140, // 8-channel DDR5-4400 (half populated)
			PrefetchEfficiency:   0.85,
			L1MissFactor:         0.0012,
			LLCBaseMissFrac:      0.45,
			AllCoreClockFactor:   0.70,
		},
		DRAMBytes: 512 * GiB,
		GPU: GPU{
			Name:              "NVIDIA H100 80GB",
			MemBytes:          80 * GiB,
			FP32TFlops:        67,
			TensorTFlops:      400, // sustained, not peak-sparsity marketing
			MemBandwidthGBs:   3350,
			UnifiedMemPenalty: 2.0,
			InitSeconds:       22.0,
			CompileFactor:     2.5,
		},
		Storage: Storage{
			Name:            "PCIe 4.0 NVMe SSD",
			SeqReadMBs:      6800,
			RandReadIOPS:    1_000_000,
			ReadLatencyMs:   0.08,
			MaxQueuedUtilPc: 95,
		},
	}
}

// ServerWithCXL returns the server with the 256 GiB CXL memory expander
// attached (used only in the Section III-C RNA memory experiments).
func ServerWithCXL() Machine {
	m := Server()
	m.Name = "Server+CXL"
	m.CXLBytes = 256 * GiB
	m.CXLLatencyFactor = 2.5
	return m
}

// Desktop returns the AMD Ryzen 7900X + RTX 4080 platform of Table I.
func Desktop() Machine {
	return Machine{
		Name: "Desktop",
		CPU: CPU{
			Name:                 "AMD Ryzen 9 7900X",
			Vendor:               "AMD",
			Cores:                12,
			Threads:              24,
			BaseClockGHz:         4.7,
			MaxClockGHz:          5.6,
			L1DBytes:             32 * KiB, // 64 KB per core = 32 KB data + 32 KB instr
			L2Bytes:              1 * MiB,
			LLCBytes:             64 * MiB,
			BaseIPC:              3.6,
			BranchQuality:        2.2,
			BranchPenaltyCycles:  14,
			TLBReachBytes:        288 * KiB, // 72-entry first-level dTLB (what uProf reports)
			TLBMissPenaltyCycles: 0.3,       // second-level TLB hit, almost fully overlapped
			L2LatencyCycles:      13,
			LLCLatencyCycles:     50,
			MemLatencyNs:         78,
			MemBandwidthGBs:      72, // dual-channel DDR5-6000
			PrefetchEfficiency:   0.88,
			L1MissFactor:         0.012,
			LLCBaseMissFrac:      0.0,
			AllCoreClockFactor:   0.88,
		},
		DRAMBytes: 64 * GiB,
		GPU: GPU{
			Name:              "NVIDIA RTX 4080 16GB",
			MemBytes:          16 * GiB,
			FP32TFlops:        49,
			TensorTFlops:      130,
			MemBandwidthGBs:   717,
			UnifiedMemPenalty: 1.8,
			InitSeconds:       12.0,
			CompileFactor:     1.0,
		},
		Storage: Storage{
			Name:            "PCIe 4.0 NVMe SSD",
			SeqReadMBs:      7000,
			RandReadIOPS:    1_000_000,
			ReadLatencyMs:   0.08,
			MaxQueuedUtilPc: 100,
		},
	}
}

// DesktopUpgraded returns the desktop with the 128 GiB DRAM upgrade the
// paper needed to run 6QNR (Section III-B).
func DesktopUpgraded() Machine {
	m := Desktop()
	m.Name = "Desktop-128G"
	m.DRAMBytes = 128 * GiB
	return m
}

// ByName returns a platform by its Name field or by its -machine flag
// spelling (server, desktop, desktop-upgraded, server-cxl).
func ByName(name string) (Machine, error) {
	switch name {
	case "server":
		return Server(), nil
	case "desktop":
		return Desktop(), nil
	case "desktop-upgraded":
		return DesktopUpgraded(), nil
	case "server-cxl":
		return ServerWithCXL(), nil
	}
	for _, m := range All() {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("platform: unknown machine %q (want server, desktop, desktop-upgraded or server-cxl)", name)
}

// All returns every defined platform.
func All() []Machine {
	return []Machine{Server(), ServerWithCXL(), Desktop(), DesktopUpgraded()}
}
