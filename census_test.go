package a4nn

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// raceBuild is set under the race detector (race_test.go): the census
// type-checks the whole module and the standard library it imports, which
// the race build would only slow down without exercising any concurrency.
var raceBuild bool

// censusKeep lists the internal names that no binary, example, benchmark
// or a4nn.go export reaches (or settings fields no code sets) and that
// stay anyway, each for a test that needs it. A kind is one of:
//
//   - reference: a test compares a production path against it;
//   - seam: a test observes or fakes the program through it;
//   - ablation: DESIGN §5's ablation benches run it;
//   - paper API: the source paper names it.
//
// A kept name keeps what it reaches. A row whose name the roots do reach,
// or whose test no file defines, fails the census, so the table cannot
// outlive its reasons. A helper only tests call, in the package they
// test, lives in a _test.go file instead.
var censusKeep = []struct{ name, kind, test string }{
	{"predict.Logistic", "ablation", "BenchmarkAblationCurveFamilies"},
	{"predict.Config.RecencyWeight", "ablation", "BenchmarkAblationRecencyWeight"},
	{"sched.SimulateFIFO", "ablation", "BenchmarkAblationScheduling"},
	{"sched.SimulateRoundRobin", "ablation", "BenchmarkAblationScheduling"},
	{"commons.Store.GetSnapshot", "paper API", "TestSnapshots"},
	{"commons.Store.Snapshots", "paper API", "TestSnapshots"},
	{"genome.ParseMicro", "seam", "TestMicroGoldenBits"},
	{"chaos.IsInjected", "seam", "TestWorkflowCheckpointResumeMidGeneration"},
	{"core.RealTrainerConfig.BatchSize", "seam", "TestRealTrainerGoldenBits"},
	{"health.Engine.CriticalActive", "seam", "TestHealthMonitorEndToEnd"},
	{"obs.Journal.Since", "seam", "TestMonitorsGolden"},
	{"obs.ArmedRecorders", "seam", "TestOpenCloseReleasesEverything"},
	{"obs.Registry.Scopes", "seam", "TestOpenCloseReleasesEverything"},
	{"tsdb.OpenDBs", "seam", "TestOpenCloseReleasesEverything"},
	{"tsdb.Options.SealSamples", "seam", "TestTornTailRecovery"},
	{"tensor.SetMaxWorkers", "seam", "TestMatMulIntoWorkerInvariance"},
	{"tensor.UseExpKernel", "seam", "TestTrackerGoldenBits"},
	{"tensor.UseGEMMKernels", "seam", "TestRealTrainerGoldenBits"},
}

// TestReachCensus holds internal/ to DESIGN §10's reach rule: every
// package-level declaration under internal/ is reached from a root, and
// every exported field of an internal *Config, *Options, *Policy, *Plan
// or *Params struct is written by non-test code other than the fill of
// its own default. The roots are the main
// and init functions of every command and example, every declaration of
// the benchmark, and the exported names of a4nn.go.
//
// It type-checks every non-test package of the module from source with
// go/types, so it needs nothing beyond the standard library and its
// sources. A method is reached when its type is and its name is called
// anywhere reached (an interface call reaches every method of that name)
// or it implements an interface of the standard library.
func TestReachCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source")
	}
	if raceBuild {
		t.Skip("type-checks the module from source; nothing to race")
	}
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	unset := m.unsetConfigFields()
	bare := m.unreached(nil)

	defined := testFuncs(t)
	kept := map[string]bool{}
	kinds := map[string]bool{"reference": true, "seam": true, "ablation": true, "paper API": true}
	for _, row := range censusKeep {
		kept[row.name] = true
		if !kinds[row.kind] {
			t.Errorf("census row %s: kind %q is not reference, seam, ablation or paper API", row.name, row.kind)
		}
		if !defined[row.test] {
			t.Errorf("census row %s names %s, which no test file defines", row.name, row.test)
		}
		if !bare[row.name] && !unset[row.name] {
			t.Errorf("census row %s: the roots reach it (or code sets it); drop the row", row.name)
		}
	}
	// A kept name is a root of its own: what it reaches stays with it.
	unreached := m.unreached(kept)
	report := func(what string, names map[string]bool) {
		var bad []string
		for name := range names {
			if !kept[name] {
				bad = append(bad, name)
			}
		}
		sort.Strings(bad)
		for _, name := range bad {
			t.Errorf("%s: %s", what, name)
		}
	}
	report("no binary, example, benchmark or a4nn.go export reaches", unreached)
	report("no non-test code sets the config field", unset)
}

// testFuncs returns the name of every Test, Benchmark and Fuzz function
// the module's test files define.
func testFuncs(t *testing.T) map[string]bool {
	defined := map[string]bool{}
	re := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range re.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return defined
}

// censusPkg is one type-checked package of the module.
type censusPkg struct {
	path  string
	files []*ast.File // non-test files built on this host
	other []*ast.File // non-test files this host's build excludes
	types *types.Package
	info  *types.Info
	done  bool
}

// censusModule is the module's non-test code, type-checked, with the
// reference graph between its declarations.
type censusModule struct {
	fset   *token.FileSet
	module string
	pkgs   map[string]*censusPkg // by import path
	std    types.Importer

	decls map[types.Object][]ast.Node // each declaration's syntax
	roots []types.Object
}

func loadModule(root string) (*censusModule, error) {
	modfile, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(modfile), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	fset := token.NewFileSet()
	m := &censusModule{
		fset:   fset,
		module: module,
		pkgs:   map[string]*censusPkg{},
		std:    importer.ForCompiler(fset, "source", nil),
		decls:  map[types.Object][]ast.Node{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return m.parseDir(root, path)
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(m.pkgs))
	for path := range m.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := m.check(path); err != nil {
			return nil, err
		}
	}
	m.collect()
	return m, nil
}

// parseDir parses the non-test Go files of one directory, split by
// whether the host's build includes them.
func (m *censusModule) parseDir(root, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	p := &censusPkg{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return err
		} else if ok {
			p.files = append(p.files, f)
		} else {
			p.other = append(p.other, f)
		}
	}
	if len(p.files) == 0 {
		return nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return err
	}
	p.path = m.module
	if rel != "." {
		p.path += "/" + filepath.ToSlash(rel)
	}
	m.pkgs[p.path] = p
	return nil
}

// Import resolves the module's own packages by type-checking them and
// everything else from the standard library's source.
func (m *censusModule) Import(path string) (*types.Package, error) {
	if _, ok := m.pkgs[path]; ok {
		return m.check(path)
	}
	return m.std.Import(path)
}

func (m *censusModule) check(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p.done {
		return p.types, nil
	}
	p.done = true
	p.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(path, m.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p.types = tp
	return tp, nil
}

// collect records every package-level declaration's syntax and the roots.
func (m *censusModule) collect() {
	for _, p := range m.pkgs {
		main := p.types.Name() == "main"
		bench := p.path == m.module+"/benchmark"
		top := p.path == m.module
		for _, f := range p.files {
			facade := top && filepath.Base(m.fset.File(f.Pos()).Name()) == "a4nn.go"
			for _, d := range f.Decls {
				for _, obj := range declObjects(p.info, d, m.decls) {
					switch {
					case bench,
						main && (obj.Name() == "main" || obj.Name() == "init"),
						facade && obj.Exported(),
						obj.Name() == "init":
						m.roots = append(m.roots, obj)
					}
				}
			}
		}
	}
}

// declObjects returns the objects a top-level declaration defines and
// records the syntax each is declared by.
func declObjects(info *types.Info, d ast.Decl, decls map[types.Object][]ast.Node) []types.Object {
	var objs []types.Object
	add := func(id *ast.Ident, n ast.Node) {
		if obj := info.Defs[id]; obj != nil && id.Name != "_" {
			decls[obj] = append(decls[obj], n)
			objs = append(objs, obj)
		}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		add(d.Name, d)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				add(s.Name, s)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					add(id, s)
				}
			}
		}
	}
	return objs
}

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvNamed returns the named type a method is declared on.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// reach marks live everything the roots reach, and the declarations whose
// census names are in kept reach.
func (m *censusModule) reach(kept map[string]bool) map[types.Object]bool {
	pkgOf := map[*types.Package]*censusPkg{}
	for _, p := range m.pkgs {
		pkgOf[p.types] = p
	}
	live := map[types.Object]bool{}
	// Method names selected anywhere reached; errors.Is, As and Unwrap
	// call these three through interfaces declared inside their bodies.
	called := map[string]bool{"Unwrap": true, "Is": true, "As": true}
	var work []types.Object
	mark := func(obj types.Object) {
		if obj == nil || live[obj] {
			return
		}
		if _, declared := m.decls[obj]; !declared {
			return
		}
		live[obj] = true
		work = append(work, obj)
	}
	scan := func(p *censusPkg, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.info.Uses[id]
			if obj == nil {
				return true
			}
			obj = origin(obj)
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				called[fn.Name()] = true
			}
			mark(obj)
			return true
		})
	}
	// A file the host's build excludes is not type-checked; any name it
	// mentions keeps the package-level declaration of that name live, and
	// any selector it makes counts as a call.
	for _, p := range m.pkgs {
		for _, f := range p.other {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					mark(p.types.Scope().Lookup(n.Name))
				case *ast.SelectorExpr:
					called[n.Sel.Name] = true
				}
				return true
			})
		}
	}
	for _, obj := range m.roots {
		mark(obj)
	}
	for obj := range m.decls {
		if kept[m.censusName(obj)] {
			mark(obj)
		}
	}
	ifaces := m.stdInterfaces()
	for {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			for _, n := range m.decls[obj] {
				scan(pkgOf[obj.Pkg()], n)
			}
		}
		// Methods of live types whose names are called, or which
		// implement an interface of the standard library.
		for obj := range m.decls {
			fn, ok := obj.(*types.Func)
			if !ok || live[fn] {
				continue
			}
			named := recvNamed(fn)
			if named == nil || !live[named.Obj()] {
				continue
			}
			if called[fn.Name()] || implementsStd(named, fn.Name(), ifaces) {
				mark(fn)
			}
		}
		if len(work) == 0 {
			return live
		}
	}
}

// stdInterfaces returns every interface type the standard library
// packages the module imports declare, and error.
func (m *censusModule) stdInterfaces() []*types.Interface {
	seen := map[*types.Package]bool{}
	var out []*types.Interface
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if _, own := m.pkgs[pkg.Path()]; !own {
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() != nil {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range m.pkgs {
		visit(p.types)
	}
	return out
}

func implementsStd(named *types.Named, method string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// censusName names a declaration as the census table does: the package
// path under internal/, the receiver type of a method, and the name.
func (m *censusModule) censusName(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), m.module+"/internal/")
	if fn, ok := obj.(*types.Func); ok {
		if named := recvNamed(fn); named != nil {
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + obj.Name()
}

func (m *censusModule) internal(pkg *types.Package) bool {
	return strings.HasPrefix(pkg.Path(), m.module+"/internal/")
}

// unreached returns the census name of every internal declaration that
// neither a root nor a kept name reaches.
func (m *censusModule) unreached(kept map[string]bool) map[string]bool {
	live := m.reach(kept)
	out := map[string]bool{}
	for obj := range m.decls {
		if !live[obj] && m.internal(obj.Pkg()) {
			out[m.censusName(obj)] = true
		}
	}
	return out
}

// configSuffix matches the struct names whose fields are settings.
var configSuffix = regexp.MustCompile(`(Config|Options|Policy|Plan|Params)$`)

// unsetConfigFields returns every exported field of an internal settings
// struct that no non-test code writes: by a keyed or positional
// composite literal, an assignment or increment, or by taking its
// address (as the spec parsers' knob tables do). Filling in the default
// a zero stands for is not a write: a field only that sets is a constant.
func (m *censusModule) unsetConfigFields() map[string]bool {
	written := map[*types.Var]bool{}
	for _, p := range m.pkgs {
		// field marks the selected field written, and every field the
		// selection goes through (cfg.Retry.MaxAttempts writes Retry too).
		field := func(e ast.Expr) {
			for {
				sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
				if !ok {
					return
				}
				if v, ok := p.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
					written[v.Origin()] = true
				}
				e = sel.X
			}
		}
		// fills are the assignments of a default: `if x.F == 0 { x.F = v }`
		// (or <= 0) sets the value the field already means when unset.
		fills := map[ast.Stmt]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					if isDefaultFill(n) {
						fills[n.Body.List[0]] = true
					}
				case *ast.AssignStmt:
					if fills[n] {
						return true
					}
					for _, lhs := range n.Lhs {
						field(lhs)
					}
				case *ast.IncDecStmt:
					field(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						field(n.X)
					}
				case *ast.CompositeLit:
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
									written[v.Origin()] = true
								}
							}
							continue
						}
						tv := p.info.Types[n]
						if tv.Type == nil {
							continue
						}
						if st, ok := tv.Type.Underlying().(*types.Struct); ok && i < st.NumFields() {
							written[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
	}
	out := map[string]bool{}
	for obj := range m.decls {
		tn, ok := obj.(*types.TypeName)
		if !ok || !m.internal(obj.Pkg()) || !configSuffix.MatchString(tn.Name()) {
			continue
		}
		// An alias of a generic instance (core.Config = ConfigOf[…]) names
		// the fields of its origin.
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok {
			continue
		}
		named = named.Origin()
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Exported() && !f.Embedded() && !written[f] {
				out[m.censusName(named.Obj())+"."+f.Name()] = true
			}
		}
	}
	return out
}

// isDefaultFill reports whether the if statement is `if x.F == 0 { x.F =
// v }` or `if x.F <= 0 { x.F = v }`: the field's zero value standing for v.
func isDefaultFill(n *ast.IfStmt) bool {
	cond, ok := n.Cond.(*ast.BinaryExpr)
	if !ok || n.Init != nil || n.Else != nil || len(n.Body.List) != 1 ||
		cond.Op != token.EQL && cond.Op != token.LEQ {
		return false
	}
	if zero, ok := cond.Y.(*ast.BasicLit); !ok || zero.Value != "0" {
		return false
	}
	set, ok := n.Body.List[0].(*ast.AssignStmt)
	if !ok || len(set.Lhs) != 1 || set.Tok != token.ASSIGN {
		return false
	}
	return types.ExprString(set.Lhs[0]) == types.ExprString(cond.X)
}
