package msa

import (
	"sort"
	"strings"

	"afsysbench/internal/platform"
	"afsysbench/internal/simhw"
)

// Footprint model: the CPU simulator needs, per function class, the reused
// hot working set (and its thread-shared portion) at paper scale. These
// are modeled from sample features, not measured from the MiB-scale
// synthetic run, because they are properties of the full-size workload:
//
//   - the shared hot set is HMMER's reader block window plus the recruited
//     alignment stack (grows with query length and with how many hit
//     residues the search accumulates — promo's ambiguous-match explosion
//     directly inflates it, which is what makes its LLC behavior improve
//     with threads on Intel, Section V-B2b);
//   - the private hot set is each worker's DP arenas, growing with query
//     length;
//   - copy_to_iter streams the database itself.
//
// The constants put the 2PV7 hot set between the two platforms' LLC sizes
// (30 MiB < hot < 64 MiB), which is the regime Table III documents.
const (
	sharedHotBase         = 1 << 20  // top-hits headers
	sharedHotPerCand      = 8 << 10  // scored-alignment scratch per DP'd candidate
	sharedHotPerHitRes    = 64       // recruited hit residues in the shared stack
	privateHotBase        = 6 << 20  // per-worker DP arena floor
	privateHotPerResidue  = 12 << 10 // banded DP + forward matrices per query residue
	seedIndexHotPerRes    = 2 << 10
	seedIndexHotBase      = 2 << 20
	bufferHotBytes        = 256 << 10
	regularityPerLowCplx  = 2.0
	regularityCap         = 0.60
	serialStreamFractions = 0.02
)

// BuildRunSpec converts one measured MSA run into a CPU-model spec for the
// given machine. The run's event volumes are already scaled to paper-size
// databases; this attaches the modeled footprints and regularity.
func BuildRunSpec(mach platform.Machine, res *Result) simhw.RunSpec {
	n := res.Input.TotalResidues()
	lcf := res.Input.MaxLowComplexity()
	regularity := regularityPerLowCplx * lcf
	if regularity > regularityCap {
		regularity = regularityCap
	}

	candidates := 0
	for _, c := range res.PerChain {
		candidates += c.Candidates
	}
	sharedHot := uint64(sharedHotBase + candidates*sharedHotPerCand + res.TotalHitResidues*sharedHotPerHitRes)
	privateHot := uint64(privateHotBase + n*privateHotPerResidue)
	seedHot := uint64(seedIndexHotBase + n*seedIndexHotPerRes)

	spec := simhw.RunSpec{
		Machine:            mach,
		SerialInstructions: res.SerialInstructions,
	}
	// The buffering layer (copy_to_iter/addbuf/seebuf) is HMMER's
	// serialized master/reader thread: merge it out of the workers into
	// the reader lane.
	reader := make(map[string]simhw.FuncWork)
	var totalStream uint64
	for _, w := range res.Workers {
		tw := simhw.ThreadWork{}
		byFunc := w.ByFunc()
		names := make([]string, 0, len(byFunc))
		for name := range byFunc {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ev := byFunc[name]
			fw := simhw.FuncWork{
				Func:           ev.Func,
				Instructions:   ev.Instructions,
				Bytes:          ev.Bytes,
				Branches:       ev.Branches,
				BranchMissRate: ev.BranchMissRate,
				Pattern:        ev.Pattern,
				Allocated:      ev.Allocated,
			}
			switch {
			case strings.HasPrefix(ev.Func, "calc_band"),
				ev.Func == "viterbi_full",
				ev.Func == "forward_band":
				fw.HotBytes = sharedHot + privateHot
				fw.SharedHotBytes = sharedHot
				fw.Regularity = regularity
				tw.Funcs = append(tw.Funcs, fw)
			case ev.Func == "seed_filter":
				fw.HotBytes = seedHot
				fw.SharedHotBytes = seedHot
				fw.Regularity = regularity
				tw.Funcs = append(tw.Funcs, fw)
			case ev.Func == "copy_to_iter":
				// Half the reported traffic is the read side streaming
				// straight from the page cache.
				fw.StreamBytes = ev.Bytes / 2
				totalStream += fw.StreamBytes
				addReaderWork(reader, fw)
			case ev.Func == "addbuf" || ev.Func == "seebuf":
				fw.HotBytes = bufferHotBytes
				addReaderWork(reader, fw)
			default:
				fw.HotBytes = bufferHotBytes
				tw.Funcs = append(tw.Funcs, fw)
			}
		}
		spec.Threads = append(spec.Threads, tw)
	}
	names := make([]string, 0, len(reader))
	for name := range reader {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec.Reader = append(spec.Reader, reader[name])
	}
	spec.SerialStreamBytes = uint64(float64(totalStream) * serialStreamFractions)
	return spec
}

// addReaderWork merges a function's work into the reader lane.
func addReaderWork(reader map[string]simhw.FuncWork, fw simhw.FuncWork) {
	cur, ok := reader[fw.Func]
	if !ok {
		reader[fw.Func] = fw
		return
	}
	cur.Instructions += fw.Instructions
	cur.Bytes += fw.Bytes
	cur.Branches += fw.Branches
	cur.StreamBytes += fw.StreamBytes
	cur.Allocated += fw.Allocated
	reader[fw.Func] = cur
}
