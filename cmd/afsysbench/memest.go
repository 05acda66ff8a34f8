package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"afsysbench/internal/inputs"
	"afsysbench/internal/memest"
	"afsysbench/internal/platform"
	"afsysbench/internal/report"
)

// runMemest is the memest mode: the static memory pre-check the paper
// proposes in Section VI. It projects the MSA stage's peak memory from input
// features (longest RNA chain, protein length, thread count) and reports
// whether the run fits each platform — before any compute is spent. Stock
// AlphaFold3 performs no such check and dies in the OOM killer.
//
//	afsysbench memest -sample 6QNR
//	afsysbench memest -input my_assembly.json -threads 8
//	afsysbench memest -max-rna          # longest safe RNA chain per platform
func runMemest(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("afsysbench memest", flag.ContinueOnError)
	sample := fs.String("sample", "", "Table II sample name")
	inputPath := fs.String("input", "", "AF3 JSON input file")
	threads := fs.Int("threads", 8, "MSA thread count (protein memory scales with it)")
	maxRNA := fs.Bool("max-rna", false, "print the longest safe RNA chain per platform")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *maxRNA {
		var rows [][]string
		for _, m := range platform.All() {
			rows = append(rows, []string{
				m.Name,
				fmt.Sprintf("%d GiB", m.TotalMemBytes()>>30),
				fmt.Sprint(memest.MaxSafeRNALength(m)),
			})
		}
		return report.Table(w, []string{"machine", "memory", "max safe RNA length"}, rows)
	}

	var in *inputs.Input
	var err error
	switch {
	case *sample != "":
		in, err = inputs.ByName(*sample)
	case *inputPath != "":
		var f *os.File
		f, err = os.Open(*inputPath)
		if err == nil {
			defer f.Close()
			in, err = inputs.Read(f)
		}
	default:
		return fmt.Errorf("pass -sample, -input, or -max-rna")
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "input %s: %d chains, %d residues, longest RNA %d, longest protein %d\n",
		in.Name, in.ChainCount(), in.TotalResidues(), in.MaxRNALength(), in.MaxProteinLength())
	var rows [][]string
	for _, m := range platform.All() {
		est := memest.Check(in, m, *threads)
		gpu := memest.GPUCheck(in, m)
		rows = append(rows, []string{
			m.Name,
			fmt.Sprintf("%d GiB", m.TotalMemBytes()>>30),
			fmt.Sprintf("%.1f GiB", float64(est.PeakBytes)/(1<<30)),
			est.Verdict.String(),
			fmt.Sprintf("%.1f GiB", float64(gpu.TotalBytes)/(1<<30)),
			gpu.Verdict.String(),
		})
	}
	if err := report.Table(w, []string{"machine", "memory", "projected peak", "verdict", "GPU footprint", "GPU verdict"}, rows); err != nil {
		return err
	}
	for _, m := range platform.All() {
		if est := memest.Check(in, m, *threads); est.Verdict == memest.OOM {
			fmt.Fprintf(w, "warning: %s would be OOM-killed on %s — do not launch\n", in.Name, m.Name)
		}
	}
	return nil
}
