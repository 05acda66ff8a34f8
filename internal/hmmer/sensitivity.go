package hmmer

import (
	"fmt"

	"afsysbench/internal/metering"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
)

// Search-quality evaluation. The paper keeps jackhmmer/nhmmer despite their
// cost because of their sensitivity to distant homologs (Section VII); this
// harness measures the reproduction engine's own sensitivity/specificity so
// that performance work never silently trades away search quality. It is
// used by the test suite and available to users for regression tracking.

// SensitivityPoint is the recovery outcome at one divergence rate.
type SensitivityPoint struct {
	// Divergence is the substitution rate of the planted homologs.
	Divergence float64
	// Planted and Recovered count homologs at this rate and how many the
	// search reported with E below the significance threshold.
	Planted, Recovered int
}

// Recovery returns the recovered fraction.
func (p SensitivityPoint) Recovery() float64 {
	if p.Planted == 0 {
		return 0
	}
	return float64(p.Recovered) / float64(p.Planted)
}

// SensitivityReport is a full evaluation run.
type SensitivityReport struct {
	Points []SensitivityPoint
	// Decoys and FalsePositives measure specificity: random sequences
	// reported as significant.
	Decoys         int
	FalsePositives int
}

// FalsePositiveRate returns false positives per decoy.
func (r *SensitivityReport) FalsePositiveRate() float64 {
	if r.Decoys == 0 {
		return 0
	}
	return float64(r.FalsePositives) / float64(r.Decoys)
}

// SensitivityOptions configure an evaluation.
type SensitivityOptions struct {
	// PerRate is how many homologs to plant at each divergence (default 8).
	PerRate int
	// Decoys is the number of unrelated records (default 200).
	Decoys int
	Seed   uint64
}

// sensitivityQueryLen is the probe chain length.
const sensitivityQueryLen = 200

func (o SensitivityOptions) withDefaults() SensitivityOptions {
	if o.PerRate <= 0 {
		o.PerRate = 8
	}
	if o.Decoys <= 0 {
		o.Decoys = 200
	}
	return o
}

// EvaluateSensitivity plants homologs of a random query at each divergence
// rate among decoys, runs the standard protein search, and reports recovery
// per rate plus the decoy false-positive rate.
func EvaluateSensitivity(rates []float64, opts SensitivityOptions) (*SensitivityReport, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("hmmer: no divergence rates")
	}
	opts = opts.withDefaults()
	src := rng.New(opts.Seed)
	gen := seq.NewGenerator(src.Split(1))
	query := gen.Random("probe", seq.Protein, sensitivityQueryLen)

	var records []*seq.Sequence
	planted := make(map[string]int) // id -> rate index
	for ri, rate := range rates {
		if rate < 0 || rate >= 1 {
			return nil, fmt.Errorf("hmmer: divergence rate %v out of [0,1)", rate)
		}
		for k := 0; k < opts.PerRate; k++ {
			id := fmt.Sprintf("hom_r%02d_%02d", ri, k)
			records = append(records, gen.Mutate(query, id, rate))
			planted[id] = ri
		}
	}
	for d := 0; d < opts.Decoys; d++ {
		records = append(records, gen.Random(fmt.Sprintf("decoy_%04d", d), seq.Protein, sensitivityQueryLen))
	}
	// Deterministic shuffle so planted records are not clustered.
	perm := src.Split(2).Perm(len(records))
	shuffled := make([]*seq.Sequence, len(records))
	for i, p := range perm {
		shuffled[i] = records[p]
	}

	dbResidues := 0
	for _, r := range shuffled {
		dbResidues += r.Len()
	}
	res, err := SearchProtein(query, func() RecordSource {
		return &SliceSource{Seqs: shuffled}
	}, dbResidues, SearchOptions{Iterations: 1}, metering.Nop{})
	if err != nil {
		return nil, err
	}

	report := &SensitivityReport{Decoys: opts.Decoys}
	report.Points = make([]SensitivityPoint, len(rates))
	for ri, rate := range rates {
		report.Points[ri] = SensitivityPoint{Divergence: rate, Planted: opts.PerRate}
	}
	for _, h := range res.Hits {
		if h.EValue > InclusionE {
			continue // recovered means the next round would recruit it
		}
		if ri, ok := planted[h.TargetID]; ok {
			report.Points[ri].Recovered++
		} else {
			report.FalsePositives++
		}
	}
	return report, nil
}
