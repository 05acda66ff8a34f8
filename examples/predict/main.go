// Predict: run the real math end to end — MSA search, Pairformer trunk,
// diffusion sampling — at reduced model dimensions, and write the sampled
// structure as a PDB file with convergence confidence in the B-factor
// column. This is the "it actually computes something" path; the benchmark
// experiments use the same kernels with analytic scale-up instead.
//
//	go run ./examples/predict [output.pdb]
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"afsysbench/internal/diffusion"
	"afsysbench/internal/inputs"
	"afsysbench/internal/msa"
	"afsysbench/internal/pairformer"
	"afsysbench/internal/parallel"
	"afsysbench/internal/rng"
	"afsysbench/internal/seq"
)

func main() {
	out := "prediction.pdb"
	if len(os.Args) > 1 {
		out = os.Args[1]
	}
	if err := run(os.Stdout, out); err != nil {
		log.Fatal(err)
	}
}

// run predicts the demo assembly and writes the structure to the file out.
func run(w io.Writer, out string) error {
	// A small two-chain assembly so the real O(N³) trunk stays fast.
	g := seq.NewGenerator(rng.New(99))
	in := &inputs.Input{
		Name: "demo",
		Chains: []inputs.Chain{
			{IDs: []string{"A"}, Sequence: g.Random("demo_A", seq.Protein, 24)},
			{IDs: []string{"B"}, Sequence: g.Random("demo_B", seq.Protein, 16)},
		},
	}
	if err := in.Validate(); err != nil {
		return err
	}
	n := in.TotalResidues()
	fmt.Fprintf(w, "input %s: %d chains, %d residues\n", in.Name, in.ChainCount(), n)

	// One Threads knob governs both parallel stages: the MSA scan shards
	// databases across this many workers, and the compute kernels below run
	// on a pool of the same size. Sharding is deterministic, so the result
	// is bitwise identical at any worker count.
	const threads = 4
	pool := parallel.ForWorkers(threads)

	// 1. MSA phase: real profile-HMM searches against small synthetic
	// databases with planted homologs.
	dbs, err := msa.BuildDBSet([]*inputs.Input{in}, msa.DBConfig{Seed: 5, SeqsPerDB: 60, HomologsPerQuery: 4})
	if err != nil {
		return err
	}
	msaRes, err := msa.Run(in, msa.Options{Threads: threads, DBs: dbs})
	if err != nil {
		return err
	}
	hits := 0
	for _, c := range msaRes.PerChain {
		hits += c.Hits
	}
	fmt.Fprintf(w, "MSA: %d hits, alignment depth %d, %d paired rows\n",
		hits, msaRes.Features.Rows, msaRes.Features.PairedRows)

	// 2. Pairformer trunk at reduced dimensions (real triangle updates and
	// attention over the N×N pair representation).
	cfg := pairformer.Config{
		Blocks: 2, PairDim: 16, SingleDim: 32,
		Heads: 2, HeadDim: 8, TriHidden: 16, TransMult: 2,
	}
	src := rng.New(7)
	state := pairformer.RandomState(cfg, n, src.Split(1))
	if err := pairformer.Stack(cfg, state, src.Split(2), pool); err != nil {
		return err
	}
	fmt.Fprintf(w, "Pairformer: %d blocks over %d tokens (pair tensor %d elements)\n",
		cfg.Blocks, n, state.Pair.Len())

	// 3. Diffusion sampling: iterative denoising of atom coordinates with
	// convergence confidence.
	dcfg := diffusion.Config{
		Samples: 1, Steps: 12, TokenDim: 32, AtomDim: 16,
		AtomsPerToken: 4, AtomWindow: 12,
		GlobalLayers: 2, LocalEncLayers: 2, LocalDecLayers: 2, Heads: 2,
	}
	den, err := diffusion.NewDenoiser(dcfg, src.Split(3))
	if err != nil {
		return err
	}
	coords, conf, err := den.SampleWithConfidence(n, src.Split(4), pool)
	if err != nil {
		return err
	}

	// 4. Emit the structure.
	atoms, err := FromCoords(coords, in, dcfg.AtomsPerToken, conf)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := WritePDB(f, atoms); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "Diffusion: %d steps over %d atoms\n", dcfg.Steps, coords.Shape[0])
	fmt.Fprintf(w, "wrote %s (%d atoms, mean confidence %.1f)\n",
		out, len(atoms), MeanConfidence(atoms))
	return nil
}
