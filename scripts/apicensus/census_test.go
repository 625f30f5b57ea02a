// Package apicensus keeps the module's exported surface from growing
// names that only tests use. It has no code of its own: its one test
// type-checks the module, its examples and the bench harness from
// source and fails on every exported name that no non-test file
// refers to.
package apicensus

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowed lists the exported names kept although no non-test file
// refers to them, each with its reason.
var allowed = map[string]string{
	"extrap/internal/metrics.FromTrace": "the per-thread breakdown over a whole trace; " +
		"a time breakdown that adds up (ROADMAP item 8) builds on it",
	"extrap/internal/jobs.(*Manager).SetCellHook": "serve's TestJobCancel freezes a running " +
		"job with it, and nothing inside internal/serve can reach the job's cells otherwise",
	"extrap/internal/pcxx.(*Collection).Write": "the only way a pcxx program records a remote " +
		"write (the paper's section 5 extension); tests in sim, core and the root package " +
		"build the remote-write traces the simulator and replay must handle with it",
}

// surface lists the packages whose exported names are a library
// surface kept whether or not anything here calls them.
var surface = map[string]string{
	"extrap":                  "the root facade",
	"extrap/internal/hpfmini": "the HPF front end's intrinsics (the paper's sections 5 and 6)",
}

// conventional lists method names that satisfy an interface the
// standard library declares inline (errors.Is, errors.As,
// errors.Unwrap), which no named interface can stand for.
var conventional = map[string]bool{"Unwrap": true, "Is": true, "As": true}

type listed struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
}

// goList returns the packages `go list -deps` reports for ./... in
// dir, dependencies first.
func goList(t *testing.T, dir string) []listed {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listed
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func TestNoExportedNameOnlyTestsUse(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var pkgs []listed
	for _, p := range append(goList(t, root), goList(t, filepath.Join(root, "bench"))...) {
		if !p.Standard && len(p.GoFiles) > 0 && !seen[p.ImportPath] {
			seen[p.ImportPath] = true
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
	}

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		used[origin(obj)] = true
	}
	for _, sel := range info.Selections {
		used[origin(sel.Obj())] = true
	}
	ifaces := interfaces(checked)

	var unused []string
	found := map[string]bool{}
	for _, p := range pkgs {
		if p.Module == nil || p.Module.Path != "extrap" || p.Name == "main" || surface[p.ImportPath] != "" {
			continue
		}
		scope := checked[p.ImportPath].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				unused = append(unused, p.ImportPath+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || used[m] || implements(named, m.Name(), ifaces) {
					continue
				}
				unused = append(unused, methodName(p.ImportPath, named, m))
			}
		}
	}
	sort.Strings(unused)
	var bad []string
	for _, name := range unused {
		found[name] = true
		if allowed[name] == "" {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d exported names have no non-test use in the module, examples/ or bench/; "+
			"delete or unexport them, or allowlist them with a reason:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
	for name := range allowed {
		if !found[name] {
			t.Errorf("allowlisted %s is gone or has a non-test use now; drop it from the allowlist", name)
		}
	}
}

// origin maps an instantiated generic function, method or field to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfaces returns error and every named method-set interface
// declared in the checked packages and in the standard packages they
// import.
func interfaces(checked map[string]*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	return out
}

// implements reports whether the method named name of T or *T is one
// that satisfies an interface.
func implements(named *types.Named, name string, ifaces []*types.Interface) bool {
	if conventional[name] {
		return true
	}
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(named, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

func methodName(pkg string, named *types.Named, m *types.Func) string {
	recv := named.Obj().Name()
	if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
		recv = "(*" + recv + ")"
	}
	return pkg + "." + recv + "." + m.Name()
}
