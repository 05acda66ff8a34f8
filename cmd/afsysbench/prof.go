package main

import (
	"flag"
	"fmt"
	"io"

	"afsysbench/internal/core"
	"afsysbench/internal/hmmer"
	"afsysbench/internal/inputs"
	"afsysbench/internal/msa"
	"afsysbench/internal/platform"
	"afsysbench/internal/profile"
	"afsysbench/internal/seq"
	"afsysbench/internal/simhw"
	"afsysbench/internal/trace"
)

// runProf is the prof mode: perf-report-style function-level profiles from
// the simulated pipeline — the suite's analog of the paper's perf/uProf/nsys
// workflow.
//
//	afsysbench prof -sample 2PV7 -machine Server -threads 4            # MSA profile
//	afsysbench prof -sample 2PV7 -machine Server -compare              # 1T vs 4T (Table IV)
//	afsysbench prof -sample promo -machine Server -phase inference     # host init/compile (Table V)
//	afsysbench prof -sample 2PV7 -machine Desktop -phase timeline      # nsys-style timeline (Fig. 8)
func runProf(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("afsysbench prof", flag.ContinueOnError)
	sample := fs.String("sample", "2PV7", "Table II sample name")
	machineName := fs.String("machine", "Server", "platform name (Server, Desktop, ...)")
	threads := fs.Int("threads", 4, "thread count")
	phase := fs.String("phase", "msa", "msa | inference | timeline | layers | hits")
	compare := fs.Bool("compare", false, "compare 1T vs 4T side by side (Table IV layout)")
	metricName := fs.String("metric", "cycles", "cycles | instructions | cache-misses | dTLB | page-faults | branches")
	if err := fs.Parse(args); err != nil {
		return err
	}

	in, mach, err := sampleOnMachine(*sample, *machineName)
	if err != nil {
		return err
	}
	metric, err := parseMetric(*metricName)
	if err != nil {
		return err
	}
	suite, err := core.NewSuite()
	if err != nil {
		return err
	}

	switch *phase {
	case "msa":
		if *compare {
			p1, err := msaProfile(suite, in, mach, 1)
			if err != nil {
				return err
			}
			p4, err := msaProfile(suite, in, mach, 4)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("%s MSA phase on %s", in.Name, mach.Name)
			if err := profile.Compare(w, title, profile.Cycles, [2]string{"1T", "4T"}, [2]map[string]simhw.Counters{p1, p4}, 1); err != nil {
				return err
			}
			return profile.Compare(w, title, profile.CacheMisses, [2]string{"1T", "4T"}, [2]map[string]simhw.Counters{p1, p4}, 1)
		}
		res, err := suite.MSAResult(in, *threads)
		if err != nil {
			return err
		}
		sim := simhw.Simulate(msa.BuildRunSpec(mach, res))
		title := fmt.Sprintf("%s MSA phase on %s, %d threads", in.Name, mach.Name, *threads)
		if err := profile.Stat(w, title, sim.Aggregate, sim.Seconds); err != nil {
			return err
		}
		return profile.Write(w, title, sim.PerFunc, metric, 0.5)
	case "inference":
		host, err := suite.CompileSim(mach, in.TotalResidues())
		if err != nil {
			return err
		}
		title := fmt.Sprintf("%s inference host profile on %s", in.Name, mach.Name)
		for _, m := range []profile.Metric{profile.Cycles, profile.PageFaults, profile.TLBMisses, profile.CacheMisses} {
			if err := profile.Write(w, title, host.Sim.PerFunc, m, 0.5); err != nil {
				return err
			}
		}
		return nil
	case "layers":
		n := in.TotalResidues()
		spill := suite.Model.MemoryFootprintBytes(n) > mach.GPU.MemBytes
		layers := suite.Model.LayerTimes(mach, n, spill)
		tl := trace.FromLayers(fmt.Sprintf("%s GPU compute layers on %s", in.Name, mach.Name), layers)
		return tl.Render(w, 60)
	case "hits":
		return showHits(w, suite, in)
	case "timeline":
		pb, err := suite.InferenceOnly(in, mach, false)
		if err != nil {
			return err
		}
		tl := trace.FromInference(fmt.Sprintf("%s inference on %s", in.Name, mach.Name), pb)
		return tl.Render(w, 60)
	default:
		return fmt.Errorf("unknown phase %q", *phase)
	}
}

// showHits searches the sample's first MSA chain against its primary
// database and renders the top alignments (the traceback's human-readable
// face).
func showHits(w io.Writer, suite *core.Suite, in *inputs.Input) error {
	chains := in.MSAChains()
	if len(chains) == 0 {
		return fmt.Errorf("sample %s has no MSA-searched chains", in.Name)
	}
	query := chains[0].Sequence
	dbList := suite.DBs.For(query.Type)
	if len(dbList) == 0 {
		return fmt.Errorf("no databases for %v", query.Type)
	}
	db := dbList[0]
	search := func() (res *hmmer.Result, err error) {
		src := func() hmmer.RecordSource { return &hmmer.SliceSource{Seqs: db.Seqs} }
		if query.Type == seq.Protein {
			return hmmer.SearchProtein(query, src, db.TotalResidues(), hmmer.SearchOptions{Iterations: 1}, nil)
		}
		return hmmer.SearchNucleotide(query, src, db.TotalResidues(), hmmer.SearchOptions{}, nil)
	}
	res, err := search()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s chain %s vs %s: %d records scanned, %d hits\n\n",
		in.Name, chains[0].IDs[0], db.Name, res.Scanned, len(res.Hits))
	shown := 0
	for _, h := range res.Hits {
		if shown == 3 {
			break
		}
		fmt.Fprintln(w, h.Summary(query))
		if h.Alignment != nil && len(h.Alignment.Pairs) > 0 {
			if err := hmmer.RenderAlignment(w, query, h.Target, h.Alignment, 60); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(w, "no significant hits")
	}
	return nil
}

func msaProfile(suite *core.Suite, in *inputs.Input, mach platform.Machine, threads int) (map[string]simhw.Counters, error) {
	res, err := suite.MSAResult(in, threads)
	if err != nil {
		return nil, err
	}
	sim := simhw.Simulate(msa.BuildRunSpec(mach, res))
	return sim.PerFunc, nil
}

func parseMetric(name string) (profile.Metric, error) {
	switch name {
	case "cycles":
		return profile.Cycles, nil
	case "instructions":
		return profile.Instructions, nil
	case "cache-misses":
		return profile.CacheMisses, nil
	case "dTLB":
		return profile.TLBMisses, nil
	case "page-faults":
		return profile.PageFaults, nil
	case "branches":
		return profile.BranchMisses, nil
	default:
		return 0, fmt.Errorf("unknown metric %q", name)
	}
}
