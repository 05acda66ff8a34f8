package resilience

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"afsysbench/internal/rng"
)

// Fault is one parsed fault directive.
type Fault struct {
	Class Class
	// DB targets a database by name; "*" targets every database
	// (Transient/Permanent only).
	DB string
	// Chain targets an MSA chain by id; "*" targets every chain
	// (ChainTransient only).
	Chain string
	// Op targets a disk-tier operation — "write", "fsync", "rename",
	// "flip", "read" — or "*" for any (DiskFault only).
	Op string
	// Count is the number of failing attempts per database
	// (Transient) or per chain (ChainTransient).
	Count int
	// Seconds is the stall duration (Stall).
	Seconds float64
	// GiB is the anonymous-memory spike size (MemSpike).
	GiB float64
	// AfterDB is the 0-based ordinal of the streamed database after which
	// the spike fires (MemSpike, default 0: after the first).
	AfterDB int
}

// Faults is a parsed fault specification.
type Faults []Fault

// ParseFaults parses a comma-separated fault spec, the -faults flag
// grammar:
//
//	transient:<db>[:count]   first count read attempts of db fail (default 1)
//	permanent:<db>           every read of db fails
//	stall:<seconds>          one MSA worker shard stalls for seconds
//	memspike:<gib>[:after]   anonymous memory grows by gib GiB after the
//	                         after-th streamed database (default 0)
//	chainfault:<chain>[:count]
//	                         first count searches of the MSA chain fail
//	                         (default 1); the chain's search is retried in
//	                         place, up to MaxAttempts searches
//	diskfault:<op>[:count]   first count disk-tier operations of kind op
//	                         fail (default 1); op is write (torn write),
//	                         fsync (sync error), rename (crash between
//	                         temp-write and rename), flip (silent
//	                         post-write bit flip), or read (I/O error)
//
// <db> is a database name, <chain> a chain id, and <op> a disk-tier
// operation; all accept "*" for all. An empty spec parses to nil.
func ParseFaults(spec string) (Faults, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out Faults
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		switch fields[0] {
		case "transient":
			if len(fields) < 2 || len(fields) > 3 || fields[1] == "" {
				return nil, fmt.Errorf("resilience: bad fault %q: want transient:<db>[:count]", part)
			}
			f := Fault{Class: Transient, DB: fields[1], Count: 1}
			if len(fields) == 3 {
				n, err := strconv.Atoi(fields[2])
				if err != nil || n < 1 {
					return nil, fmt.Errorf("resilience: bad transient count in %q", part)
				}
				f.Count = n
			}
			out = append(out, f)
		case "permanent":
			if len(fields) != 2 || fields[1] == "" {
				return nil, fmt.Errorf("resilience: bad fault %q: want permanent:<db>", part)
			}
			out = append(out, Fault{Class: Permanent, DB: fields[1]})
		case "stall":
			if len(fields) != 2 {
				return nil, fmt.Errorf("resilience: bad fault %q: want stall:<seconds>", part)
			}
			sec, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || sec <= 0 {
				return nil, fmt.Errorf("resilience: bad stall seconds in %q", part)
			}
			out = append(out, Fault{Class: Stall, Seconds: sec})
		case "chainfault":
			if len(fields) < 2 || len(fields) > 3 || fields[1] == "" {
				return nil, fmt.Errorf("resilience: bad fault %q: want chainfault:<chain>[:count]", part)
			}
			f := Fault{Class: ChainTransient, Chain: fields[1], Count: 1}
			if len(fields) == 3 {
				n, err := strconv.Atoi(fields[2])
				if err != nil || n < 1 {
					return nil, fmt.Errorf("resilience: bad chainfault count in %q", part)
				}
				f.Count = n
			}
			out = append(out, f)
		case "diskfault":
			if len(fields) < 2 || len(fields) > 3 || !validDiskOp(fields[1]) {
				return nil, fmt.Errorf("resilience: bad fault %q: want diskfault:<write|fsync|rename|flip|read|*>[:count]", part)
			}
			f := Fault{Class: DiskFault, Op: fields[1], Count: 1}
			if len(fields) == 3 {
				n, err := strconv.Atoi(fields[2])
				if err != nil || n < 1 {
					return nil, fmt.Errorf("resilience: bad diskfault count in %q", part)
				}
				f.Count = n
			}
			out = append(out, f)
		case "memspike":
			if len(fields) < 2 || len(fields) > 3 {
				return nil, fmt.Errorf("resilience: bad fault %q: want memspike:<gib>[:after]", part)
			}
			gib, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || gib <= 0 {
				return nil, fmt.Errorf("resilience: bad memspike size in %q", part)
			}
			f := Fault{Class: MemSpike, GiB: gib}
			if len(fields) == 3 {
				n, err := strconv.Atoi(fields[2])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("resilience: bad memspike position in %q", part)
				}
				f.AfterDB = n
			}
			out = append(out, f)
		default:
			return nil, fmt.Errorf("resilience: unknown fault class %q in %q", fields[0], part)
		}
	}
	return out, nil
}

// ParseRunFaults is ParseFaults for a command's -faults flag, which injects
// into pipeline runs: it refuses diskfault terms, since a disk fault reaches
// only a cachedisk.Store opened with an Injector, and the chaos-disk
// serving gate is what opens one.
func ParseRunFaults(spec string) (Faults, error) {
	fs, err := ParseFaults(spec)
	for _, f := range fs {
		if f.Class == DiskFault {
			return nil, fmt.Errorf("resilience: %s: disk faults are injected by the chaos-disk gate, not into a run", Faults{f})
		}
	}
	return fs, err
}

// String renders the spec back in flag grammar.
func (fs Faults) String() string {
	var parts []string
	for _, f := range fs {
		switch f.Class {
		case Transient:
			parts = append(parts, fmt.Sprintf("transient:%s:%d", f.DB, f.Count))
		case Permanent:
			parts = append(parts, "permanent:"+f.DB)
		case Stall:
			parts = append(parts, fmt.Sprintf("stall:%g", f.Seconds))
		case MemSpike:
			parts = append(parts, fmt.Sprintf("memspike:%g:%d", f.GiB, f.AfterDB))
		case ChainTransient:
			parts = append(parts, fmt.Sprintf("chainfault:%s:%d", f.Chain, f.Count))
		case DiskFault:
			parts = append(parts, fmt.Sprintf("diskfault:%s:%d", f.Op, f.Count))
		}
	}
	return strings.Join(parts, ",")
}

// validDiskOp reports whether op names a disk-tier operation the injector
// understands.
func validDiskOp(op string) bool {
	switch op {
	case "write", "fsync", "rename", "flip", "read", "*":
		return true
	}
	return false
}

// Injector turns a fault spec into per-attempt decisions. All state is
// consumed in the orchestrator's single-threaded control path, and every
// stochastic draw comes from the seeded source, so decisions are identical
// at any worker count. An Injector serves one pipeline run; a nil *Injector
// injects nothing.
type Injector struct {
	src *rng.Source
	// remaining transient failures per database; the "*" entry is the
	// template lazily instantiated per database on first touch.
	transient map[string]int
	wildcard  int
	permanent map[string]bool
	allPerm   bool
	stall     float64
	spikeGiB  float64
	spikeAt   int

	// Chain-scoped transient budgets, consulted once per chain search on
	// the run's MSA stage.
	chainRem      map[string]int
	chainWildcard int

	// Disk-op fault budgets. Disk-tier operations race across serving
	// workers (every MSA worker may spill or read through concurrently),
	// so these carry their own lock.
	diskMu       sync.Mutex
	diskRem      map[string]int
	diskWildcard int
}

// NewInjector builds the injector for one run. src seeds the backoff
// jitter; it must derive from (suite seed, sample, run index) so repeat
// runs draw fresh-but-reproducible jitter.
func NewInjector(fs Faults, src *rng.Source) *Injector {
	if len(fs) == 0 {
		return nil
	}
	inj := &Injector{
		src:       src,
		transient: make(map[string]int),
		permanent: make(map[string]bool),
		chainRem:  make(map[string]int),
		diskRem:   make(map[string]int),
		spikeAt:   -1,
	}
	for _, f := range fs {
		switch f.Class {
		case DiskFault:
			if f.Op == "*" {
				inj.diskWildcard += f.Count
			} else {
				inj.diskRem[f.Op] += f.Count
			}
		case ChainTransient:
			if f.Chain == "*" {
				inj.chainWildcard += f.Count
			} else {
				inj.chainRem[f.Chain] += f.Count
			}
		case Transient:
			if f.DB == "*" {
				inj.wildcard += f.Count
			} else {
				inj.transient[f.DB] += f.Count
			}
		case Permanent:
			if f.DB == "*" {
				inj.allPerm = true
			} else {
				inj.permanent[f.DB] = true
			}
		case Stall:
			inj.stall += f.Seconds
		case MemSpike:
			inj.spikeGiB += f.GiB
			inj.spikeAt = f.AfterDB
		}
	}
	return inj
}

// ReadFault decides the fate of one read attempt (1-based) on a database.
// It returns nil for success, or a *FaultError. Transient budgets are
// consumed per call; permanent faults never clear.
func (i *Injector) ReadFault(db string, attempt int) error {
	if i == nil {
		return nil
	}
	if i.allPerm || i.permanent[db] {
		return &FaultError{Class: Permanent, DB: db, Attempt: attempt}
	}
	rem, seen := i.transient[db]
	if !seen && i.wildcard > 0 {
		rem = i.wildcard
		i.transient[db] = rem
	}
	if rem > 0 {
		i.transient[db] = rem - 1
		return &FaultError{Class: Transient, DB: db, Attempt: attempt}
	}
	return nil
}

// ChainFault decides the fate of one search (1-based attempt) of an MSA
// chain. It returns nil for success or a *FaultError with class
// ChainTransient. Budgets are consumed per call and persist for the
// injector's lifetime, so the chain's retried search finds the budget
// spent and succeeds.
func (i *Injector) ChainFault(chain string, attempt int) error {
	if i == nil {
		return nil
	}
	rem, seen := i.chainRem[chain]
	if !seen && i.chainWildcard > 0 {
		rem = i.chainWildcard
		i.chainRem[chain] = rem
	}
	if rem > 0 {
		i.chainRem[chain] = rem - 1
		return &FaultError{Class: ChainTransient, DB: "chain/" + chain, Attempt: attempt}
	}
	return nil
}

// DiskFault decides the fate of one disk-tier operation of kind op
// ("write", "fsync", "rename", "flip", "read"). It returns nil for success
// or a *FaultError with class DiskFault; the disk store interprets the
// fault per op (a torn write, a skipped rename, a silent bit flip, ...).
// Budgets are consumed per call and persist for the injector's lifetime,
// so retries eventually succeed once the budget is spent. Safe for
// concurrent use (serving workers hit the disk tier in parallel).
func (i *Injector) DiskFault(op string) error {
	if i == nil {
		return nil
	}
	i.diskMu.Lock()
	defer i.diskMu.Unlock()
	rem, seen := i.diskRem[op]
	if !seen && i.diskWildcard > 0 {
		rem = i.diskWildcard
		i.diskRem[op] = rem
	}
	if rem > 0 {
		i.diskRem[op] = rem - 1
		return &FaultError{Class: DiskFault, DB: "disk/" + op}
	}
	return nil
}

// HasChainFaults reports whether the spec carries any chain-scoped
// faults: the pipeline hooks the injector into the chain searches only
// then.
func (i *Injector) HasChainFaults() bool {
	if i == nil {
		return false
	}
	return i.chainWildcard > 0 || len(i.chainRem) > 0
}

// StallSeconds returns the injected worker-shard stall (0 if none). It is
// a pure query: the degradation ladder may re-plan the MSA stage several
// times and the stall applies to each plan identically.
func (i *Injector) StallSeconds() float64 {
	if i == nil {
		return 0
	}
	return i.stall
}

// MemSpike returns the anonymous-memory spike to apply after streaming the
// database with the given 0-based ordinal (0 if none fires there). Pure
// query, like StallSeconds.
func (i *Injector) MemSpike(dbIndex int) int64 {
	if i == nil || i.spikeGiB <= 0 || dbIndex != i.spikeAt {
		return 0
	}
	return int64(i.spikeGiB * float64(1<<30))
}

// BackoffSource returns a child source for the retry jitter of one
// retried operation — a database open, or one disk-tier operation on one
// entry — keyed by name so the draw order is independent of which other
// operations faulted first. Take it once per operation and draw every
// retry from it: Split does not advance the parent, so a fresh source
// per retry repeats the first draw. A nil Injector (reads failed by
// someone else's hook) still yields a deterministic source.
func (i *Injector) BackoffSource(name string) *rng.Source {
	var key uint64
	for _, c := range []byte(name) {
		key = key*131 + uint64(c)
	}
	if i == nil {
		return rng.New(0x5E11).Split(key)
	}
	return i.src.Split(key)
}
