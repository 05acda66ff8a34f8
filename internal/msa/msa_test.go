package msa

import (
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
	"afsysbench/internal/seq"
	"afsysbench/internal/simhw"
)

// testDBs builds a shared small database set once; generation is
// deterministic so sharing across tests is safe.
var testDBs *DBSet

func dbs(t *testing.T) *DBSet {
	t.Helper()
	if testDBs == nil {
		var err error
		testDBs, err = BuildDBSet(inputs.Samples(), DefaultDBConfig())
		if err != nil {
			t.Fatal(err)
		}
	}
	return testDBs
}

func TestBuildDBSet(t *testing.T) {
	set := dbs(t)
	if len(set.Protein) != 2 || len(set.RNA) != 3 {
		t.Fatalf("db counts: %d protein, %d RNA", len(set.Protein), len(set.RNA))
	}
	// Paper: the RNA corpora total 89 GiB.
	var rnaBytes int64
	for _, db := range set.RNA {
		rnaBytes += db.ModeledBytes()
	}
	if gib := float64(rnaBytes) / (1 << 30); gib < 88 || gib > 90 {
		t.Errorf("RNA modeled size = %.1f GiB, want 89", gib)
	}
	if set.For(seq.Protein) == nil || set.For(seq.RNA) == nil {
		t.Error("For() lookup broken")
	}
	if set.For(seq.Ligand) != nil {
		t.Error("ligand databases should not exist")
	}
	if set.ModeledBytes() <= 0 {
		t.Error("modeled bytes not positive")
	}
}

func TestBuildDBSetErrors(t *testing.T) {
	if _, err := BuildDBSet(nil, DBConfig{SeqsPerDB: 0}); err == nil {
		t.Error("zero SeqsPerDB accepted")
	}
}

func TestRunBasics(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	res, err := Run(in, Options{Threads: 2, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	// 2PV7 has one unique protein chain (A and B identical): one search.
	if len(res.PerChain) != 1 {
		t.Fatalf("per-chain results = %d, want 1", len(res.PerChain))
	}
	if res.PerChain[0].Scanned == 0 {
		t.Error("no records scanned")
	}
	if len(res.Workers) != 2 {
		t.Fatalf("workers = %d", len(res.Workers))
	}
	for i, w := range res.Workers {
		if w.Len() == 0 {
			t.Errorf("worker %d recorded no events", i)
		}
	}
	if res.SerialInstructions == 0 {
		t.Error("no serial work modeled")
	}
	if res.Features == nil || res.Features.Cols != 484 {
		t.Errorf("features missing or wrong width: %+v", res.Features)
	}
}

func TestRunErrors(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	if _, err := Run(in, Options{}); err == nil {
		t.Error("missing databases accepted")
	}
	bad := &inputs.Input{}
	if _, err := Run(bad, Options{DBs: dbs(t)}); err == nil {
		t.Error("invalid input accepted")
	}
}

func TestDNAChainsExcluded(t *testing.T) {
	in, _ := inputs.ByName("promo") // 3 protein + 2 DNA
	res, err := Run(in, Options{Threads: 1, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerChain) != 3 {
		t.Fatalf("promo searched %d chains, want 3 (DNA excluded, Obs. 2)", len(res.PerChain))
	}
	for _, c := range res.PerChain {
		if c.Type == seq.DNA {
			t.Error("DNA chain searched")
		}
	}
}

func TestRNAChainUsesRNADatabases(t *testing.T) {
	in, _ := inputs.ByName("6QNR")
	res, err := Run(in, Options{Threads: 2, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	foundRNA := false
	for _, c := range res.PerChain {
		if c.Type == seq.RNA {
			foundRNA = true
		}
	}
	if !foundRNA {
		t.Fatal("6QNR RNA chain not searched")
	}
	for _, db := range dbs(t).RNA {
		if res.Streamed[db.Name] == 0 {
			t.Errorf("RNA database %s never streamed", db.Name)
		}
	}
}

func TestStreamedBytesAccounting(t *testing.T) {
	in, _ := inputs.ByName("1YY9") // 3 protein chains, 2 rounds
	res, err := Run(in, Options{Threads: 2, Rounds: 2, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range dbs(t).Protein {
		want := db.ModeledBytes() * 3 * 2 // chains × rounds
		if got := res.Streamed[db.Name]; got != want {
			t.Errorf("%s streamed %d, want %d", db.Name, got, want)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	a, err := Run(in, Options{Threads: 3, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(in, Options{Threads: 3, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	if a.PerChain[0].Hits != b.PerChain[0].Hits ||
		a.PerChain[0].Candidates != b.PerChain[0].Candidates ||
		a.TotalHitResidues != b.TotalHitResidues {
		t.Error("MSA run not deterministic at fixed thread count")
	}
	at, bt := a.Workers[1].Totals(), b.Workers[1].Totals()
	if at.Instructions != bt.Instructions {
		t.Error("worker metering not deterministic")
	}
}

func TestHitsIndependentOfThreadCount(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	r1, err := Run(in, Options{Threads: 1, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(in, Options{Threads: 4, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	if r1.PerChain[0].Hits != r4.PerChain[0].Hits {
		t.Errorf("hits differ across thread counts: %d vs %d",
			r1.PerChain[0].Hits, r4.PerChain[0].Hits)
	}
	if r1.PerChain[0].Candidates != r4.PerChain[0].Candidates {
		t.Errorf("candidates differ across thread counts")
	}
}

func TestPromoCandidateExplosion(t *testing.T) {
	// Observation 2: promo's poly-Q chain floods the search with
	// ambiguous candidates relative to 1YY9 despite similar length.
	promoIn, _ := inputs.ByName("promo")
	yy9In, _ := inputs.ByName("1YY9")
	promo, err := Run(promoIn, Options{Threads: 1, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	yy9, err := Run(yy9In, Options{Threads: 1, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	pc, yc := 0, 0
	for _, c := range promo.PerChain {
		pc += c.Candidates
	}
	for _, c := range yy9.PerChain {
		yc += c.Candidates
	}
	if pc < yc*3/2 {
		t.Errorf("promo candidates (%d) not well above 1YY9 (%d)", pc, yc)
	}
	// And the extra filtering work shows up as more instructions.
	var pInstr, yInstr uint64
	for _, w := range promo.Workers {
		pInstr += w.Totals().Instructions
	}
	for _, w := range yy9.Workers {
		yInstr += w.Totals().Instructions
	}
	if pInstr <= yInstr {
		t.Errorf("promo instruction volume (%d) not above 1YY9 (%d)", pInstr, yInstr)
	}
}

func TestBuildRunSpecStructure(t *testing.T) {
	in, _ := inputs.ByName("2PV7")
	res, err := Run(in, Options{Threads: 4, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	spec := BuildRunSpec(platform.Server(), res)
	if len(spec.Threads) != 4 {
		t.Fatalf("spec threads = %d", len(spec.Threads))
	}
	if len(spec.Reader) == 0 {
		t.Fatal("reader lane empty — buffering layer not routed")
	}
	readerFuncs := map[string]bool{}
	for _, fw := range spec.Reader {
		readerFuncs[fw.Func] = true
	}
	for _, fn := range []string{"copy_to_iter", "addbuf", "seebuf"} {
		if !readerFuncs[fn] {
			t.Errorf("%s missing from reader lane", fn)
		}
	}
	for ti, tw := range spec.Threads {
		for _, fw := range tw.Funcs {
			if readerFuncs[fw.Func] {
				t.Errorf("thread %d still carries reader function %s", ti, fw.Func)
			}
			if fw.Func == "calc_band_9" && fw.HotBytes == 0 {
				t.Error("DP kernel missing hot footprint")
			}
		}
	}
	if spec.SerialInstructions == 0 {
		t.Error("serial instructions not carried into spec")
	}
}

func TestSimulatedScalingShape(t *testing.T) {
	// Figure 4's shape: near-2x at 2 threads, then saturation.
	in, _ := inputs.ByName("2PV7")
	mach := platform.Desktop()
	seconds := map[int]float64{}
	for _, threads := range []int{1, 2, 4, 8} {
		res, err := Run(in, Options{Threads: threads, DBs: dbs(t)})
		if err != nil {
			t.Fatal(err)
		}
		seconds[threads] = simhw.Simulate(BuildRunSpec(mach, res)).Seconds
	}
	s2 := seconds[1] / seconds[2]
	if s2 < 1.6 || s2 > 2.2 {
		t.Errorf("2-thread speedup = %.2f, want ~2 (Fig. 4)", s2)
	}
	s8 := seconds[1] / seconds[8]
	if s8 > 4.5 {
		t.Errorf("8-thread speedup = %.2f, must saturate well below ideal", s8)
	}
	if seconds[8] >= seconds[2] {
		t.Errorf("8T (%.0fs) not faster than 2T (%.0fs)", seconds[8], seconds[2])
	}
}

func TestSimulatedPromoSlowerThan1YY9(t *testing.T) {
	// Observation 2 end-to-end: promo MSA time well above 1YY9 despite
	// similar residue counts, on both platforms.
	for _, mach := range []platform.Machine{platform.Server(), platform.Desktop()} {
		times := map[string]float64{}
		for _, name := range []string{"promo", "1YY9"} {
			in, _ := inputs.ByName(name)
			res, err := Run(in, Options{Threads: 4, DBs: dbs(t)})
			if err != nil {
				t.Fatal(err)
			}
			times[name] = simhw.Simulate(BuildRunSpec(mach, res)).Seconds
		}
		if times["promo"] < times["1YY9"]*1.5 {
			t.Errorf("%s: promo MSA %.0fs not well above 1YY9 %.0fs",
				mach.Name, times["promo"], times["1YY9"])
		}
	}
}

func TestSimulatedDesktopBeatsServer(t *testing.T) {
	// Observation 1: the desktop's clock advantage wins the CPU-bound
	// MSA phase.
	in, _ := inputs.ByName("1YY9")
	res, err := Run(in, Options{Threads: 4, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv := simhw.Simulate(BuildRunSpec(platform.Server(), res)).Seconds
	dsk := simhw.Simulate(BuildRunSpec(platform.Desktop(), res)).Seconds
	if dsk >= srv {
		t.Errorf("desktop MSA %.0fs not faster than server %.0fs", dsk, srv)
	}
}

func TestTableIVFunctionShares(t *testing.T) {
	// Table IV: the banded DP kernels dominate cycles, with calc_band_9 >=
	// calc_band_10, and addbuf/seebuf visible but smaller.
	in, _ := inputs.ByName("2PV7")
	res, err := Run(in, Options{Threads: 4, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	sim := simhw.Simulate(BuildRunSpec(platform.Server(), res))
	cyc := func(fn string) float64 { return float64(sim.PerFunc[fn].Cycles) }
	var total float64
	for _, c := range sim.PerFunc {
		total += float64(c.Cycles)
	}
	band := cyc("calc_band_9") + cyc("calc_band_10")
	if band/total < 0.35 {
		t.Errorf("band kernels = %.0f%% of cycles, want dominant", 100*band/total)
	}
	if cyc("calc_band_9") < cyc("calc_band_10") {
		t.Error("calc_band_9 must retire at least as much as calc_band_10")
	}
	if cyc("addbuf") == 0 || cyc("seebuf") == 0 {
		t.Error("buffer functions missing from profile")
	}
	if cyc("addbuf") >= band {
		t.Error("addbuf must not dominate the DP kernels")
	}
}

func TestFeaturesShape(t *testing.T) {
	in, _ := inputs.ByName("6QNR")
	res, err := Run(in, Options{Threads: 2, DBs: dbs(t)})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Features
	if f.Cols != 1395 {
		t.Errorf("feature cols = %d, want 1395", f.Cols)
	}
	if f.Rows < 1 {
		t.Error("feature rows must be at least the query row")
	}
	if f.FeatureDim != 21 {
		t.Errorf("feature dim = %d, want 21", f.FeatureDim)
	}
	if f.Bytes() != int64(f.Rows)*int64(f.Cols)*21 {
		t.Error("feature bytes wrong")
	}
}
