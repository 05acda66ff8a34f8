// Quickstart: run one sample end to end on both platforms and print the
// phase breakdown — the "hello world" of the suite.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/report"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A suite bundles the synthetic reference databases and the AF3-scale
	// inference model. Construction generates everything deterministically.
	suite, err := core.NewSuite()
	if err != nil {
		return err
	}

	// Pick a Table II sample. 2PV7 is the small symmetric protein dimer.
	in, err := inputs.ByName("2PV7")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sample %s: %d chains, %d residues\n\n", in.Name, in.ChainCount(), in.TotalResidues())

	// Run the full pipeline (MSA phase + inference phase) on each platform
	// at AF3's default 8 threads.
	var bars []report.Bar
	for _, mach := range core.TwoPlatforms() {
		pr, err := suite.RunPipeline(in, mach, core.PipelineOptions{Threads: 8})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: MSA %.0fs (%.0f%% of total), inference %.0fs, disk util %.0f%%\n",
			mach.Name, pr.MSASeconds, 100*pr.MSAFraction(), pr.Inference.Total(), pr.DiskUtilPct)
		bars = append(bars, report.Bar{
			Label: mach.Name,
			Segments: []report.Segment{
				{Name: "MSA", Value: pr.MSASeconds},
				{Name: "inference", Value: pr.Inference.Total()},
			},
		})

		// An Nsight-style timeline of the inference phase.
		fmt.Fprintln(w)
		title := fmt.Sprintf("%s inference on %s", in.Name, mach.Name)
		if err := report.Gantt(w, title, report.InferenceSegments(pr.Inference), 50); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	return report.StackedBars(w, "end-to-end comparison", bars, 50)
}
