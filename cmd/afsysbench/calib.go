package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
)

// runCalib is the calib mode: the raw simulated numbers behind every paper
// artifact — the calibration matrix maintainers check after touching any
// machine-model constant. It sweeps the Table II samples across both
// platforms and 1–8 threads, printing simulated MSA seconds, speedups and
// the Table III counters per cell. Every MSA run comes from the suite — the
// engine options, databases and memo behind every figure and served request
// — so the matrix cannot calibrate a different engine from the one the
// artifacts run.
//
//	afsysbench calib                      # full matrix
//	afsysbench calib -samples 2PV7,promo  # subset
func runCalib(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("afsysbench calib", flag.ContinueOnError)
	samplesFlag := fs.String("samples", "2PV7,1YY9,promo,6QNR", "samples to sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	threads := core.MSAThreadSweep
	suite, err := core.NewSuite()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "DB modeled total: %.1f GiB\n", float64(suite.DBs.ModeledBytes())/(1<<30))

	for _, name := range strings.Split(*samplesFlag, ",") {
		in, err := inputs.ByName(name)
		if err != nil {
			return err
		}
		r1, err := suite.MSAResult(in, 1)
		if err != nil {
			return err
		}
		cand := 0
		for _, c := range r1.PerChain {
			cand += c.Candidates
		}
		fmt.Fprintf(w, "\n=== %s (N=%d) cand=%d hitRes=%d paired=%d ===\n",
			name, in.TotalResidues(), cand, r1.TotalHitResidues, len(r1.Pairing.Rows))
		for _, mach := range []platform.Machine{platform.Server(), platform.Desktop()} {
			fmt.Fprintf(w, "%-8s:", mach.Name)
			var t1 float64
			for _, t := range threads {
				sim, err := suite.MSAReplay(in, mach, t)
				if err != nil {
					return err
				}
				if t == threads[0] {
					t1 = sim.Seconds
				}
				fmt.Fprintf(w, "  %dT=%6.1fs(x%.2f)", t, sim.Seconds, t1/sim.Seconds)
			}
			fmt.Fprintln(w)
			for _, t := range []int{1, 4, 6} {
				sim, err := suite.MSAReplay(in, mach, t)
				if err != nil {
					return err
				}
				a := sim.Aggregate
				fmt.Fprintf(w, "   %dT IPC=%.2f MPKI=%.1f L1=%.2f%% LLC=%.1f%% dTLB=%.2f%% Br=%.2f%% bw=%.2f clk=%.2f\n",
					t, a.IPC(), a.CacheMissMPKI(), a.L1MissPct(), a.LLCMissPct(), a.DTLBMissPct(), a.BranchMissPct(), sim.BandwidthUtil, sim.ClockGHz)
			}
		}
	}
	return nil
}
