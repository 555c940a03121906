package dew

// TestReachability enforces the rule that code with no production caller
// is deleted or given one: every package-level function, method, type,
// variable and constant declared in a non-test file under internal/ must
// be used by some non-test file of this module or of the bench module.
// TestMakefileFuzz checks that `make fuzz` runs every fuzz target.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachAllow names test-support code that production never calls. An
// entry is a package (its path under internal/) or one identifier in
// the report's form; every entry carries its reason, and an entry that
// matches nothing fails the test.
var reachAllow = map[string]string{
	"trace/faultreader":   "fault-injecting readers for the robustness tests of trace, engine, explore and sweep",
	"leakcheck":           "goroutine leak check shared by the tests of several packages",
	"workload.NewKindMix": "refsim/shard_test.go draws kind-mixed streams from it, and a _test.go file cannot export across packages",
	"trace.SplitSpans":    "engine's tests and the root benchmarks cut materialized streams into spans with it, and a _test.go file cannot export across packages",
}

// listedPackage is the part of `go list -json` output the checks read.
type listedPackage struct {
	Dir          string
	ImportPath   string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// goList lists the packages of the module rooted at dir.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// moduleImporter type-checks this module's and the bench module's
// non-test files from source, importing everything else (the standard
// library) with the source importer.
type moduleImporter struct {
	fset    *token.FileSet
	listed  map[string]listedPackage
	checked map[string]*checkedPackage
	std     types.Importer
}

type checkedPackage struct {
	listed listedPackage
	files  []*ast.File
	pkg    *types.Package
	info   *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	lp, ok := m.listed[path]
	if !ok {
		return m.std.Import(path)
	}
	if c, ok := m.checked[path]; ok {
		return c.pkg, nil
	}
	c := &checkedPackage{listed: lp, info: &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}}
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, c.files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkg = pkg
	m.checked[path] = c
	return pkg, nil
}

// unusedDecl is one declaration the reachability check reports.
type unusedDecl struct {
	pos  token.Position
	name string // e.g. trace.Trace.Addrs
	pkg  string // package path under internal/, e.g. trace/faultreader
}

func TestReachability(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	build.Default.CgoEnabled = false // the standard library type-checks without running cgo
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset:    fset,
		listed:  map[string]listedPackage{},
		checked: map[string]*checkedPackage{},
		std:     importer.ForCompiler(fset, "source", nil),
	}
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		for _, p := range goList(t, dir) {
			if len(p.GoFiles) > 0 { // test-only packages have no callers to offer
				m.listed[p.ImportPath] = p
			}
		}
	}
	var paths []string
	for path := range m.listed {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := m.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	used := map[types.Object]bool{}
	ifaces := errorsInterfaces()
	instances := map[*types.Named][]*types.Named{} // generic type -> its instantiations
	for _, c := range m.checked {
		markUses(c, used)
		for _, tv := range c.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.IsMethodSet() {
				ifaces = append(ifaces, it)
			}
		}
		for id, inst := range c.info.Instances {
			markConstraintMethods(c.info.ObjectOf(id), inst.TypeArgs, used)
			if n, ok := inst.Type.(*types.Named); ok {
				instances[n.Origin()] = append(instances[n.Origin()], n)
			}
		}
	}
	ifaces = append(ifaces, namedInterfaces(m)...)

	var unused []unusedDecl
	internal := filepath.Join(root, "internal") + string(filepath.Separator)
	for _, c := range m.checked {
		if !strings.HasPrefix(c.listed.Dir+string(filepath.Separator), internal) {
			continue
		}
		rel := filepath.ToSlash(strings.TrimPrefix(c.listed.Dir, internal))
		report := func(obj types.Object, name string) {
			if !used[obj] {
				p := fset.Position(obj.Pos())
				p.Filename, _ = filepath.Rel(root, p.Filename)
				unused = append(unused, unusedDecl{p, c.pkg.Name() + "." + name, rel})
			}
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "_" || name == "init" {
				continue
			}
			report(obj, name)
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			forms := []*types.Named{named}
			if named.TypeParams().Len() > 0 {
				forms = instances[named]
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if satisfiesInterface(forms, fn.Name(), ifaces) {
					continue
				}
				report(fn, name+"."+fn.Name())
			}
		}
	}

	matched := map[string]bool{}
	sort.Slice(unused, func(i, j int) bool {
		a, b := unused[i].pos, unused[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, u := range unused {
		if _, ok := reachAllow[u.pkg]; ok {
			matched[u.pkg] = true
			continue
		}
		if _, ok := reachAllow[u.name]; ok {
			matched[u.name] = true
			continue
		}
		t.Errorf("%s:%d %s has no caller outside tests: delete it, give it a production caller, or move it into a _test.go file", u.pos.Filename, u.pos.Line, u.name)
	}
	for entry := range reachAllow {
		if !matched[entry] {
			t.Errorf("reachAllow entry %q matches no unused identifier: remove it", entry)
		}
	}
}

// markUses marks every object c's files use, mapped to its origin, as
// used. A method's receiver type, and a declaration's use of itself
// (recursion, a self-referential type), do not count.
func markUses(c *checkedPackage, used map[types.Object]bool) {
	recv := map[*ast.Ident]bool{} // receiver types are not uses
	spans := map[types.Object][2]token.Pos{}
	for _, f := range c.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				spans[c.info.Defs[d.Name]] = [2]token.Pos{d.Pos(), d.End()}
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						spans[c.info.Defs[s.Name]] = [2]token.Pos{s.Pos(), s.End()}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							spans[c.info.Defs[n]] = [2]token.Pos{s.Pos(), s.End()}
						}
					}
				}
			}
		}
	}
	for id, obj := range c.info.Uses {
		obj = origin(obj)
		if recv[id] {
			continue
		}
		if s, ok := spans[obj]; ok && s[0] <= id.Pos() && id.Pos() < s[1] {
			continue // recursion and self-reference
		}
		used[obj] = true
	}
}

// markConstraintMethods marks as used the methods a generic function or
// type calls on its type arguments: those its type parameters'
// constraints name.
func markConstraintMethods(generic types.Object, args *types.TypeList, used map[types.Object]bool) {
	var params *types.TypeParamList
	switch g := generic.(type) {
	case *types.Func:
		params = g.Type().(*types.Signature).TypeParams()
	case *types.TypeName:
		if n, ok := g.Type().(*types.Named); ok {
			params = n.TypeParams()
		}
	}
	for i := 0; params != nil && i < args.Len() && i < params.Len(); i++ {
		it, ok := params.At(i).Constraint().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for j := 0; j < it.NumMethods(); j++ {
			m := it.Method(j)
			obj, _, _ := types.LookupFieldOrMethod(args.At(i), true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
}

// errorsInterfaces returns the interfaces package errors asserts
// dynamically (errors.Is, As and Unwrap): a method satisfying one is
// called by the standard library, not by name.
func errorsInterfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	anyType := types.Universe.Lookup("any").Type()
	method := func(name string, params, results *types.Tuple) *types.Func {
		return types.NewFunc(token.NoPos, nil, name, types.NewSignatureType(nil, nil, nil, params, results, false))
	}
	tuple := func(t types.Type) *types.Tuple { return types.NewTuple(types.NewVar(token.NoPos, nil, "", t)) }
	var ifaces []*types.Interface
	for _, m := range []*types.Func{
		method("Unwrap", nil, tuple(errType)),
		method("Unwrap", nil, tuple(types.NewSlice(errType))),
		method("Is", tuple(errType), tuple(types.Typ[types.Bool])),
		method("As", tuple(anyType), tuple(types.Typ[types.Bool])),
	} {
		ifaces = append(ifaces, types.NewInterfaceType([]*types.Func{m}, nil).Complete())
	}
	return ifaces
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// namedInterfaces returns every named, non-generic interface declared in
// a package the module imports, directly or not, plus error.
func namedInterfaces(m *moduleImporter) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.IsMethodSet() {
				ifaces = append(ifaces, it)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, c := range m.checked {
		walk(c.pkg)
	}
	return ifaces
}

// satisfiesInterface reports whether method name of some form of a type
// (the type itself, or each instantiation of a generic one), or of a
// pointer to it, implements a method of an interface the form
// implements: such a method is called through the interface.
func satisfiesInterface(forms []*types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		for _, t := range forms {
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
	}
	return false
}

// TestMakefileFuzz checks that the Makefile's fuzz target runs every
// `func Fuzz*` in the module, and names no target that does not exist.
func TestMakefileFuzz(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{} // "./internal/trace FuzzDinReader"
	for _, p := range goList(t, root) {
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range append(append([]string{}, p.TestGoFiles...), p.XTestGoFiles...) {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
					targets["./"+filepath.ToSlash(rel)+" "+fn.Name.Name] = true
				}
			}
		}
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets")
	}
	inMake, err := makefileFuzz(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	for target := range targets {
		if !inMake[target] {
			t.Errorf("make fuzz does not run %s", target)
		}
	}
	for target := range inMake {
		if !targets[target] {
			t.Errorf("make fuzz names %s, which is not a fuzz target", target)
		}
	}
}

var fuzzLine = regexp.MustCompile(`\s(\./\S+)\s.*-fuzz\s+(\S+)`)

// makefileFuzz reads the package and target of every recipe line of the
// Makefile's fuzz rule.
func makefileFuzz(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	found := map[string]bool{}
	inRule := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "fuzz:"):
			inRule = true
		case inRule && strings.HasPrefix(line, "\t"):
			mm := fuzzLine.FindStringSubmatch(line)
			if mm == nil {
				return nil, fmt.Errorf("%s: fuzz recipe line without a package and -fuzz target: %q", path, line)
			}
			found[mm[1]+" "+mm[2]] = true
		default:
			inRule = false
		}
	}
	return found, sc.Err()
}
