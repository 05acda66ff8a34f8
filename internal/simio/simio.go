// Package simio models the storage path of the two platforms: the NVMe
// device (sequential throughput, request latency) and the OS page cache
// whose capacity decides whether the multi-GiB reference databases stay
// resident in DRAM. This split is the mechanism behind the paper's
// Section V-B2c contrast: the 512 GiB server keeps every database cached
// and is compute-bound, while the 64 GiB desktop re-reads from disk and
// pins its NVMe at 100% utilization — yet streams fast enough not to stall
// the pipeline.
package simio

import (
	"fmt"
	"sort"

	"afsysbench/internal/platform"
)

// System is the storage + page-cache state of one machine across a
// benchmark run. It is not safe for concurrent use; the orchestrator owns
// it.
type System struct {
	machine  platform.Machine
	reserved int64 // application anonymous memory, unavailable to the cache

	resident map[string]int64 // dataset -> resident bytes
	lastUse  map[string]int64
	tick     int64

	// Accumulated iostat-style counters.
	readBytes   int64
	busySeconds float64
	requests    int64
	failedReads int64

	// fault, when set, is consulted before each TryReadSequential attempt
	// (the resilience layer's injection point). attempts counts per-dataset
	// read attempts so the hook can distinguish first touch from retry.
	fault    FaultFunc
	attempts map[string]int
}

// FaultFunc decides the fate of one read attempt on a dataset: nil to let
// the read proceed, or an error to fail it. attempt is 1-based and counts
// every TryReadSequential call for that dataset over the System's life.
type FaultFunc func(name string, attempt int, bytes int64) error

// New builds the storage system for a machine. reservedBytes is anonymous
// application memory (heap, model weights) that competes with the page
// cache for DRAM.
func New(m platform.Machine, reservedBytes int64) *System {
	return &System{
		machine:  m,
		reserved: reservedBytes,
		resident: make(map[string]int64),
		lastUse:  make(map[string]int64),
	}
}

// CacheCapacity returns the bytes available to the page cache (DRAM plus
// CXL expansion minus reserved application memory).
func (s *System) CacheCapacity() int64 {
	c := s.machine.TotalMemBytes() - s.reserved
	if c < 0 {
		c = 0
	}
	return c
}

// SetReserved updates the application's anonymous memory reservation
// (e.g. when the nhmmer stage balloons); shrinking the cache evicts.
func (s *System) SetReserved(bytes int64) {
	s.reserved = bytes
	s.evictTo(s.CacheCapacity())
}

// Reserved returns the current anonymous-memory reservation.
func (s *System) Reserved() int64 { return s.reserved }

// SetFaultFunc installs (or clears, with nil) the read-fault hook.
func (s *System) SetFaultFunc(f FaultFunc) { s.fault = f }

// Clone returns an independent deep copy of the system: cache contents,
// LRU state, counters and reservation. The degradation ladder uses clones
// to cost candidate MSA plans without disturbing the live cache; the fault
// hook and attempt counters are shared state of the run and are NOT copied.
func (s *System) Clone() *System {
	c := &System{
		machine:     s.machine,
		reserved:    s.reserved,
		resident:    make(map[string]int64, len(s.resident)),
		lastUse:     make(map[string]int64, len(s.lastUse)),
		tick:        s.tick,
		readBytes:   s.readBytes,
		busySeconds: s.busySeconds,
		requests:    s.requests,
		failedReads: s.failedReads,
	}
	for k, v := range s.resident {
		c.resident[k] = v
	}
	for k, v := range s.lastUse {
		c.lastUse[k] = v
	}
	return c
}

// ReadResult describes one dataset scan.
type ReadResult struct {
	Bytes       int64
	FromCache   int64
	FromDisk    int64
	DiskSeconds float64
	// AwaitMs is the modeled per-request latency (the paper's r_await).
	AwaitMs float64
}

// ReadSequential simulates a front-to-back scan of the named dataset of the
// given total size. Bytes resident in the page cache are free (their CPU
// cost is already accounted by the CPU model); the remainder streams from
// the NVMe device at its sequential rate and becomes resident, evicting
// least-recently-used datasets if space is short.
func (s *System) ReadSequential(name string, bytes int64) ReadResult {
	if bytes < 0 {
		bytes = 0
	}
	s.tick++
	s.lastUse[name] = s.tick

	res := ReadResult{Bytes: bytes}
	cached := s.resident[name]
	if cached > bytes {
		cached = bytes
	}
	res.FromCache = cached
	res.FromDisk = bytes - cached

	if res.FromDisk > 0 {
		rate := s.machine.Storage.SeqReadMBs * 1e6
		res.DiskSeconds = float64(res.FromDisk) / rate
		res.AwaitMs = s.machine.Storage.ReadLatencyMs
		s.readBytes += res.FromDisk
		s.busySeconds += res.DiskSeconds
		s.requests += res.FromDisk / (128 << 10) // 128 KiB streaming requests
	}

	// Admit the freshly read bytes (and keep the cached part) under LRU.
	s.admit(name, bytes)
	return res
}

// TryReadSequential is ReadSequential behind the fault hook: the read
// fails (with the hook's error, no bytes streamed, no cache admission) or
// proceeds normally. Failed attempts count in Stats.FailedReads. Without a
// hook installed it is exactly ReadSequential.
func (s *System) TryReadSequential(name string, bytes int64) (ReadResult, error) {
	if s.fault != nil {
		if s.attempts == nil {
			s.attempts = make(map[string]int)
		}
		s.attempts[name]++
		if err := s.fault(name, s.attempts[name], bytes); err != nil {
			s.failedReads++
			return ReadResult{}, err
		}
	}
	return s.ReadSequential(name, bytes), nil
}

// Preload explicitly fetches a dataset into the cache ahead of use — the
// Section VI "preloading databases" optimization. It returns the disk time
// spent.
func (s *System) Preload(name string, bytes int64) ReadResult {
	return s.ReadSequential(name, bytes)
}

// admit makes the dataset resident up to bytes, evicting other datasets in
// LRU order, then trimming the dataset itself if it alone exceeds capacity.
func (s *System) admit(name string, bytes int64) {
	capacity := s.CacheCapacity()
	if bytes > capacity {
		bytes = capacity // a partial tail window stays resident
	}
	s.resident[name] = bytes
	s.evictTo(capacity)
}

// evictTo shrinks total residency to capacity, preferring LRU victims.
func (s *System) evictTo(capacity int64) {
	var total int64
	for _, b := range s.resident {
		total += b
	}
	if total <= capacity {
		return
	}
	type entry struct {
		name string
		use  int64
	}
	order := make([]entry, 0, len(s.resident))
	for n := range s.resident {
		order = append(order, entry{n, s.lastUse[n]})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].use < order[j].use })
	for _, e := range order {
		if total <= capacity {
			return
		}
		victim := s.resident[e.name]
		need := total - capacity
		if victim <= need {
			total -= victim
			delete(s.resident, e.name)
			delete(s.lastUse, e.name)
		} else {
			s.resident[e.name] = victim - need
			total = capacity
		}
	}
}

// Stats are cumulative iostat-style counters.
type Stats struct {
	ReadBytes   int64
	BusySeconds float64
	Requests    int64
	// FailedReads counts read attempts the fault hook rejected.
	FailedReads int64
}

// Stats returns the accumulated counters.
func (s *System) Stats() Stats {
	return Stats{ReadBytes: s.readBytes, BusySeconds: s.busySeconds, Requests: s.requests, FailedReads: s.failedReads}
}

// UtilizationPct returns device utilization over a wall-clock window: the
// fraction of that window the device was busy, as iostat %util.
func UtilizationPct(busySeconds, wallSeconds float64) float64 {
	if wallSeconds <= 0 {
		return 0
	}
	u := 100 * busySeconds / wallSeconds
	if u > 100 {
		u = 100
	}
	return u
}

// String renders stats for logs.
func (s Stats) String() string {
	out := fmt.Sprintf("read=%.1f GiB busy=%.1fs requests=%d",
		float64(s.ReadBytes)/(1<<30), s.BusySeconds, s.Requests)
	if s.FailedReads > 0 {
		out += fmt.Sprintf(" failed=%d", s.FailedReads)
	}
	return out
}
