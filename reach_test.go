// Reachability gate: every function and method declared in a non-test file
// under internal/ or cmd/ has a caller in some non-test file of the module,
// or a reason to need none. Every non-test file counts as a caller, bench/
// and examples/ included. bench/ itself is not checked, since it changes
// only with the benchmark, and neither is the root package, which is the
// public API. Go's internal/ rule means nothing outside the module can call
// what is checked, so a function the gate finds is code nothing can run.
package afsysbench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// reachAllow holds the functions that no non-test code calls and that stay
// anyway, each with the test that uses it as a reference. The gate fails
// when an entry gains a non-test caller or is no longer declared, so the
// list can only shrink.
var reachAllow = map[string]string{
	// hmmer's reference kernels: the oracles the transposed scan kernels
	// are held to, here and in the root package's kernel benchmarks.
	"hmmer.FullViterbi":        "TestTransposedKernelsMatchReferenceBitwise",
	"hmmer.BandedViterbi":      "TestPublicKernelsUseFallbackWithoutTransposedLayout",
	"hmmer.BandedViterbiAlign": "TestPublicKernelsUseFallbackWithoutTransposedLayout",
	"hmmer.Forward":            "TestPublicKernelsUseFallbackWithoutTransposedLayout",
	"hmmer.Alignment.Validate": "TestTracebackPathValid",

	// simhw's trace-driven cache model, which the analytic miss model is
	// checked against (ROADMAP item 7 decides its fate).
	"simhw.TraceMissRates":                "TestTraceMatchesAnalyticCapacityShape",
	"simhw.ValidateRegimes":               "TestValidateRegimesSummary",
	"simhw.ModelComparison.MaxDivergence": "TestValidateCapacityRegimesAgreeAtLLC",
	"simhw.SyntheticTrace.NextStream":     "TestSyntheticTraceStreamsAreDisjoint",

	// The cross-tier oracle: every serving gate compares result digests.
	"core.PipelineResult.Digest": "TestGates",

	// Tests that build a local pool release its helper goroutines.
	"parallel.Pool.Close": "TestRunCoversEveryIndexOnce",

	// internal/cluster, whose one non-test importer is bench/; the package
	// goes whole once the benchmark stops using it (ROADMAP item 18).
	"cluster.BuildScalingCurve":              "TestScalingCurvePinned",
	"cluster.Cluster.AliveNodes":             "TestScatterFailoverIdentical",
	"cluster.Cluster.KillNode":               "TestScatterFailoverIdentical",
	"cluster.Cluster.ReviveNode":             "TestScatterFailoverIdentical",
	"cluster.NetProfileFromStats":            "TestNetProfileFromStats",
	"cluster.PointFromResult":                "TestGates",
	"cluster.Router.Kill":                    "TestRouterKillMidFlight",
	"cluster.Router.Outstanding":             "TestRouterKillMidFlight",
	"cluster.Router.Replicas":                "TestRouterKillMidFlight",
	"cluster.Router.Stats":                   "TestRouterKilledReplica",
	"cluster.ScalingCurve.ShardEfficiencyAt": "TestScalingCurveEfficiencyGate",
}

// TestEveryFuncHasACaller type-checks the module from source (the standard
// library from the export data `go list -export` names) and fails on every
// function or method under internal/ or cmd/ that no non-test file uses.
// A function needs no caller when it is main or init, when it is a method
// an interface the module can see asks for, or when reachAllow lists it.
func TestEveryFuncHasACaller(t *testing.T) {
	units, err := loadModuleUnits()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range unreached(units, reachAllow) {
		t.Error(f)
	}
}

// TestReachGateFindsPlantedDeadFunc runs the gate's checker over a package
// parsed from a string: a function nothing calls is reported, a method that
// satisfies an interface literal in a type assertion is not, and an
// allowlist entry that is reached or not declared is reported.
func TestReachGateFindsPlantedDeadFunc(t *testing.T) {
	const src = `package planted

type T struct{}

func (T) M() {}

func use(x any) {
	if v, ok := x.(interface{ M() }); ok {
		v.M()
	}
}

func dead() { dead() }

func oracle() {}

func reached() {}

func init() { use(T{}); reached() }
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "planted.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	u := reachUnit{files: []*ast.File{file}, info: newReachInfo(), checked: true}
	if u.pkg, err = new(types.Config).Check("planted", fset, u.files, u.info); err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{
		"planted.oracle":  "TestOracle",
		"planted.reached": "TestReached",
		"planted.gone":    "TestGone",
	}
	got := unreached([]reachUnit{u}, allow)
	want := []string{
		"planted.dead has no non-test caller",
		"planted.gone is on the allowlist but is not declared",
		"planted.reached is on the allowlist but has a non-test caller",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// setterAllow holds the option fields that no non-test code sets and that
// stay anyway: test seams, each with the test that sets it. The gate fails
// when an entry gains a product setter or is no longer declared, so the
// list can only shrink.
var setterAllow = map[string]string{
	// The disk tier's fault injection, clock and breaker tuning.
	"cachedisk.Config.Injector":         "TestSustainedFailureTripsBreakerToMemoryOnly",
	"cachedisk.Config.Now":              "TestBreakerRecoversWhenDiskHeals",
	"cachedisk.Config.BreakerThreshold": "TestSustainedFailureTripsBreakerToMemoryOnly",
	"cachedisk.Config.BreakerCooldown":  "TestBreakerRecoversWhenDiskHeals",

	// The per-database breakers' tuning.
	"serve.Config.BreakerThreshold": "TestBreakerOpensSkipsAndAnnotates",
	"serve.Config.BreakerCooldown":  "TestBreakerHalfOpenRecovery",

	// The batch-sweep gate's shape buckets and batch cap.
	"serve.BatchConfig.Buckets":  "TestGates",
	"serve.BatchConfig.MaxBatch": "TestGates",

	// The fairness gate's unprotected comparator.
	"qos.Config.FIFO": "TestGates",

	// The Section VI preload ablation.
	"core.PipelineOptions.PreloadDBs": "BenchmarkAblationPreload",
}

// TestEveryOptionHasAProductSetter fails on every field of an exported
// *Config or *Options struct under internal/ that no non-test file sets —
// a knob nothing turns — unless setterAllow lists it. A field is set by a
// composite-literal key or an assignment statement anywhere in the module
// outside tests, bench/ and examples/ included, but not by its own type's
// withDefaults.
func TestEveryOptionHasAProductSetter(t *testing.T) {
	units, err := loadModuleUnits()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range unsetOptions(units, setterAllow) {
		t.Error(f)
	}
}

// TestSetterGateFindsPlantedKnob runs the knob gate's checker over a
// package parsed from a string: a field set nowhere and one set only by
// its type's withDefaults are reported, fields set by an assignment or a
// literal key are not, nor are fields of types not named *Config or
// *Options or not exported, and an allowlist entry that is set or not
// declared is reported.
func TestSetterGateFindsPlantedKnob(t *testing.T) {
	const src = `package planted

type RunOptions struct{ Set, Keyed, Defaulted, Seam, Unset int }

func (o RunOptions) withDefaults() RunOptions {
	o.Defaulted = 8
	return o
}

type Helper struct{ Unset int }

type hiddenConfig struct{ Unset int }

func init() {
	var o RunOptions
	o.Set = 1
	_ = RunOptions{Keyed: 2}.withDefaults()
	_, _ = Helper{}, hiddenConfig{}
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "planted.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	u := reachUnit{files: []*ast.File{file}, info: newReachInfo(), checked: true}
	if u.pkg, err = new(types.Config).Check("afsysbench/internal/planted", fset, u.files, u.info); err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{
		"planted.RunOptions.Seam": "TestSeam",
		"planted.RunOptions.Set":  "TestSet",
		"planted.RunOptions.Gone": "TestGone",
	}
	got := unsetOptions([]reachUnit{u}, allow)
	want := []string{
		"planted.RunOptions.Defaulted has no product setter",
		"planted.RunOptions.Gone is on the allowlist but is not declared",
		"planted.RunOptions.Set is on the allowlist but has a product setter",
		"planted.RunOptions.Unset has no product setter",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// unsetOptions returns, sorted, one line for every field of an exported
// *Config or *Options struct of a package under internal/ that no unit
// sets and allow does not list, and for every allowlist entry that is set
// or not declared.
func unsetOptions(units []reachUnit, allow map[string]string) []string {
	type option struct {
		name  string
		owner *types.TypeName
	}
	options := map[*types.Var]option{}
	for _, u := range units {
		if !strings.HasPrefix(u.pkg.Path(), "afsysbench/internal/") {
			continue
		}
		scope := u.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				options[f] = option{path.Base(u.pkg.Path()) + "." + name + "." + f.Name(), tn}
			}
		}
	}

	set := map[*types.Var]bool{}
	for _, u := range units {
		for _, f := range u.files {
			for _, d := range f.Decls {
				// A type's withDefaults fills in its own zero fields; that
				// is not a setter.
				var defaulted *types.TypeName
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "withDefaults" {
					recv := u.info.Defs[fd.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					if named, ok := recv.(*types.Named); ok {
						defaulted = named.Obj()
					}
				}
				mark := func(id *ast.Ident) {
					if v, ok := u.info.Uses[id].(*types.Var); ok && v.IsField() && options[v].owner != defaulted {
						set[v] = true
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						for _, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									mark(id)
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								mark(sel.Sel)
							}
						}
					}
					return true
				})
			}
		}
	}

	var findings []string
	declared := map[string]bool{}
	for v, o := range options {
		declared[o.name] = true
		switch _, listed := allow[o.name]; {
		case set[v] && listed:
			findings = append(findings, o.name+" is on the allowlist but has a product setter")
		case !set[v] && !listed:
			findings = append(findings, o.name+" has no product setter")
		}
	}
	for name := range allow {
		if !declared[name] {
			findings = append(findings, name+" is on the allowlist but is not declared")
		}
	}
	slices.Sort(findings)
	return findings
}

// reachUnit is one type-checked package of the module, without its tests.
type reachUnit struct {
	files   []*ast.File
	info    *types.Info
	pkg     *types.Package
	checked bool // its functions must have callers
}

func newReachInfo() *types.Info {
	return &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
}

// listedPkg is the part of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Module     *struct{ Path string }
}

// loadModuleUnits type-checks every package of the module from its non-test
// files, in the dependency order `go list -deps` prints, and marks the ones
// under internal/ and cmd/ as checked.
func loadModuleUnits() ([]reachUnit, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var mod []listedPkg
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Module != nil && p.Module.Path == "afsysbench" {
			mod = append(mod, p)
		} else {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := reachImporter{
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
		mod: map[string]*types.Package{},
	}
	units := make([]reachUnit, 0, len(mod))
	for _, p := range mod {
		u := reachUnit{info: newReachInfo()}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			u.files = append(u.files, f)
		}
		conf := types.Config{Importer: imp}
		if u.pkg, err = conf.Check(p.ImportPath, fset, u.files, u.info); err != nil {
			return nil, err
		}
		imp.mod[p.ImportPath] = u.pkg
		u.checked = strings.HasPrefix(p.ImportPath, "afsysbench/internal/") ||
			strings.HasPrefix(p.ImportPath, "afsysbench/cmd/")
		units = append(units, u)
	}
	return units, nil
}

// reachImporter hands out the module's own packages as checked from
// source, so a use in one package and the declaration in another are the
// same object, and everything else from export data.
type reachImporter struct {
	std types.Importer
	mod map[string]*types.Package
}

func (im reachImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.mod[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// unreached returns, sorted, one line for every function of a checked unit
// that no unit uses outside its own body and nothing excuses, and for every
// allowlist entry that is reached or not declared.
func unreached(units []reachUnit, allow map[string]string) []string {
	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	addScope := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, u := range units {
		for _, p := range u.pkg.Imports() {
			addScope(p)
		}
		for _, f := range u.files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = u.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := u.info.Uses[n].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					case *ast.InterfaceType:
						if it, ok := u.info.Types[n].Type.(*types.Interface); ok {
							ifaces = append(ifaces, it)
						}
					}
					return true
				})
			}
		}
	}

	var findings []string
	declared := map[string]bool{}
	for _, u := range units {
		if !u.checked {
			continue
		}
		for _, f := range u.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
					continue
				}
				fn := u.info.Defs[fd.Name].(*types.Func)
				name := reachName(fn)
				declared[name] = true
				reached := used[fn] || implementsSeen(fn, ifaces)
				switch _, listed := allow[name]; {
				case reached && listed:
					findings = append(findings, name+" is on the allowlist but has a non-test caller")
				case !reached && !listed:
					findings = append(findings, name+" has no non-test caller")
				}
			}
		}
	}
	for name := range allow {
		if !declared[name] {
			findings = append(findings, name+" is on the allowlist but is not declared")
		}
	}
	slices.Sort(findings)
	return findings
}

// reachName is how findings and reachAllow name a function: the last
// element of its package path, its receiver's type name for a method, and
// its own name, joined by dots ("hmmer.Alignment.Validate").
func reachName(fn *types.Func) string {
	name := path.Base(fn.Pkg().Path()) + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name += t.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}

// implementsSeen reports whether fn is a method some interface in ifaces
// asks for of its receiver type, or the Unwrap() error that errors.Is and
// errors.As look for through an unexported interface.
func implementsSeen(fn *types.Func, ifaces []*types.Interface) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	if fn.Name() == "Unwrap" && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type()) {
		return true
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}
