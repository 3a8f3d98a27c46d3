// Command deadcheck is the dead-surface gate: it fails when an exported
// identifier under internal/ is referenced by no non-test code.
//
// Usage:
//
//	go run ./scripts/deadcheck [root]
//
// root (default ".") is a module directory. Every non-test package of that
// module and of every module nested below it (the bench module is one: a
// real caller of internal/) is parsed for the host's build context and
// type-checked from source once, sharing one package cache. A package-level
// function, type, variable or constant, or an exported method of a type
// declared under internal/, is live when some non-test code outside its own
// declaration uses it. A method is also live when its type satisfies an
// interface whose method of that name is used, or any standard-library
// interface that has it: the standard library's calls are not scanned.
// Struct fields are not checked. The few names kept for tests alone —
// reference oracles and helpers shared by other packages' tests — are on
// allowList with their reasons.
//
// Each finding prints as "file:line: pkg.Name"; the exit status is 1 when
// there are findings, 2 on a load or type error.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allowList names the exported identifiers that only tests call, keyed
// "pkg.Name" or "pkg.Type.Method", each with the reason it stays.
var allowList = map[string]string{
	"admm.CoordinateDescentLasso":            "reference oracle: the ADMM solvers are checked against coordinate descent",
	"checkpoint.State.Lambdas":               "test helper: uoi's resume tests rebuild a stale checkpoint from a saved λ grid",
	"fault.Generate":                         "test helper: the seeded chaos schedules of the uoi suites",
	"fault.Plan.BootstrapFault":              "test helper: plugs a plan into uoi's LassoConfig.BootstrapFault hook",
	"fault.Plan.IOFault":                     "test helper: plugs a plan into the hbf and distio read-fault hooks",
	"mat.Dense.Equal":                        "test helper: tolerance comparison of matrices across package tests",
	"mat.PeakWorkers":                        "test hook: uoi's kernel worker-budget regression tests read the high-water mark",
	"mat.ResetPeakWorkers":                   "test hook: clears the high-water mark PeakWorkers reports",
	"metrics.PredictionLoss":                 "reference oracle: the gathered cell bodies uoi's cells are checked against score with it",
	"telemetry.Exposition.HistogramQuantile": "test helper: serve's metrics tests read a latency quantile from a scrape",
	"telemetry.Exposition.Value":             "test helper: the metrics tests of serve, fleet, stream and monitor read scraped samples",
	"telemetry.Registry.Expose":              "test helper: the metrics tests of serve, fleet and stream render a registry without an HTTP round trip",
	"trace.Event.Signature":                  "test helper: timestamp-free event identity for the replay-determinism tests",
	"trace.Tracer.Counter":                   "test helper: serve's batching tests and benchmarks read a counter",
	"trace.Tracer.Max":                       "test helper: kernel and serving tests read a gauge",
	"trace.Tracer.PhaseSeconds":              "test helper: kernel and engine tests read a phase's accumulated time",
	"varsim.Design.VecY":                     "reference oracle: vec(Y) of eq. 9, the response kron's assembled blocks are checked against",
	"varsim.Model.Forecast":                  "reference oracle: the predictor's batched forecasts are checked against the model recursion",
}

func main() {
	root := "."
	if len(os.Args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: deadcheck [module-dir]")
		os.Exit(2)
	}
	if len(os.Args) == 2 {
		root = os.Args[1]
	}
	dead, err := check(root, allowList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deadcheck: %v\n", err)
		os.Exit(2)
	}
	for _, d := range dead {
		fmt.Println(d)
	}
	if len(dead) > 0 {
		fmt.Fprintf(os.Stderr, "deadcheck: %d exported identifiers under internal/ have no non-test caller\n", len(dead))
		os.Exit(1)
	}
}

// check loads every package below root and returns one "file:line: key"
// line per dead exported identifier not in allow, sorted.
func check(root string, allow map[string]string) ([]string, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	var paths []string
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}
	return l.dead(allow), nil
}

// loader type-checks the packages of the scanned modules from source, each
// once, and resolves every other import through one shared standard-library
// importer.
type loader struct {
	fset *token.FileSet
	ctx  build.Context
	std  types.Importer
	dirs map[string]string // import path → directory, scanned modules only

	pkgs    map[string]*types.Package
	info    *types.Info
	files   map[string][]*ast.File // import path → parsed non-test files
	stdPkgs []*types.Package
}

func newLoader(root string) (*loader, error) {
	fset := token.NewFileSet()
	l := &loader{
		fset:  fset,
		ctx:   build.Default,
		std:   importer.ForCompiler(fset, "source", nil),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	l.ctx.CgoEnabled = false
	// modOf maps each visited directory to its module: the nearest go.mod
	// at or above it.
	type module struct{ dir, path string }
	modOf := map[string]module{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		mod, ok := modOf[filepath.Dir(path)]
		if gomod := filepath.Join(path, "go.mod"); fileExists(gomod) {
			mp, err := modulePath(gomod)
			if err != nil {
				return err
			}
			mod, ok = module{path, mp}, true
		}
		if !ok {
			return nil
		}
		modOf[path] = mod
		names, err := l.goFiles(path)
		if err != nil || len(names) == 0 {
			return err
		}
		rel, err := filepath.Rel(mod.dir, path)
		if err != nil {
			return err
		}
		l.dirs[filepath.ToSlash(filepath.Join(mod.path, rel))] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(l.dirs) == 0 {
		return nil, fmt.Errorf("no Go packages under %s", root)
	}
	return l, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// goFiles lists the non-test Go files of dir that the host build context
// compiles.
func (l *loader) goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		ok, err := l.ctx.MatchFile(dir, n)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, n)
		}
	}
	return names, nil
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// Import implements types.Importer: scanned packages are type-checked with
// bodies, everything else comes from the standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		return l.load(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.stdPkgs = append(l.stdPkgs, p)
	return p, nil
}

// load type-checks one scanned package, recording its definitions and
// uses in l.info.
func (l *loader) load(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := l.dirs[path]
	names, err := l.goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.pkgs[path] = p
	l.files[path] = files
	return p, nil
}

// candidate is one exported identifier under internal/ that must be used.
type candidate struct {
	obj  types.Object
	key  string       // "pkg.Name" or "pkg.Type.Method"
	recv *types.Named // the receiver's type, for methods
}

// dead returns the unused candidates not in allow, as "file:line: key".
func (l *loader) dead(allow map[string]string) []string {
	// A use inside a function's own body (recursion) does not count.
	body := map[types.Object]*ast.FuncDecl{}
	var cands []candidate
	for path, files := range l.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					body[l.info.Defs[fd.Name]] = fd
				}
			}
		}
		if !strings.Contains("/"+path+"/", "/internal/") {
			continue
		}
		pkg := l.pkgs[path]
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() {
				cands = append(cands, candidate{obj: obj, key: pkg.Name() + "." + name})
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || named.Obj() != obj {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					cands = append(cands, candidate{obj: m, key: pkg.Name() + "." + name + "." + m.Name(), recv: named})
				}
			}
		}
	}

	used := map[types.Object]bool{}
	ifaces := l.stdInterfaces()
	for id, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && !used[obj] {
				ifaces = append(ifaces, recv.Type().Underlying().(*types.Interface))
			}
		}
		if fd := body[obj]; fd != nil && id.Pos() >= fd.Pos() && id.Pos() < fd.End() {
			continue
		}
		used[obj] = true
	}

	var out []string
	for _, c := range cands {
		if used[c.obj] || allow[c.key] != "" || c.recv != nil && satisfies(c.recv, c.obj.Name(), ifaces) {
			continue
		}
		p := l.fset.Position(c.obj.Pos())
		out = append(out, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, c.key))
	}
	sort.Strings(out)
	return out
}

// stdInterfaces returns error and every interface declared at package scope
// in the standard-library packages the scanned code imports, directly or
// not: their methods are called from code deadcheck does not scan.
func (l *loader) stdInterfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range l.stdPkgs {
		walk(p)
	}
	return out
}

// satisfies reports whether t or *t implements one of ifaces that has a
// method called name. Generic types are never matched.
func satisfies(t *types.Named, name string, ifaces []*types.Interface) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}
