package edgescope

// The function-level reachability gate: every non-test function in the
// module is reachable from a main package (the binaries, the examples,
// bench/e2e) or is listed, with a reason, in scripts/reach_keep — and every
// entry of that list names a function that exists and is still unreachable,
// so the list can only shrink. scripts/ci.sh's orphan-package check is the
// cheaper per-package form of the same rule.
//
// The walk is stdlib only: `go list -deps -json` for the package graph,
// go/types over the module's non-test files (the standard library comes from
// the "source" importer), then a fixpoint over "declaration mentions
// function or type". Roots are main, init and the package-level initialisers
// of every package linked into a main package. A method is reached by name
// when reachable code calls that name through an interface or type
// parameter, or when its type satisfies a standard-library interface holding
// it (sort.Interface, http.Handler, error, flag.Value, …) — in both cases
// only once reachable code mentions the type. Generic functions and methods
// count as their Origin.

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
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const reachKeepFile = "scripts/reach_keep"

// reachGraph is the module's declaration graph. Nodes are named by
// reachName: "pkg.Func", "pkg.Type.Method", "pkg.Type", and "pkg.init" for
// everything a package runs when it is linked.
type reachGraph struct {
	fset  *token.FileSet
	info  *types.Info
	pkgs  map[string]*types.Package // module packages by import path
	std   types.ImporterFrom
	edges map[string][]string        // declaration → functions and types it mentions
	calls map[string][]string        // declaration → method names it calls through an interface
	types map[string]*types.TypeName // package-level named types
	funcs map[string]token.Position  // every non-test function, by name
}

// ImportFrom hands the type checker the module's own packages (checked
// earlier, in `go list -deps` order) and everything else from source.
func (g *reachGraph) ImportFrom(p, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := g.pkgs[p]; ok {
		return pkg, nil
	}
	return g.std.ImportFrom(p, dir, mode)
}

func (g *reachGraph) Import(p string) (*types.Package, error) { return g.ImportFrom(p, "", 0) }

// reachName names a package-level function, method or type of the module;
// "" for anything else (locals, fields, the standard library).
func (g *reachGraph) reachName(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || g.pkgs[obj.Pkg().Path()] == nil {
		return ""
	}
	base := path.Base(obj.Pkg().Path()) + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Signature().Recv(); recv != nil {
			t := types.Unalias(recv.Type())
			if p, ok := t.(*types.Pointer); ok {
				t = types.Unalias(p.Elem())
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return base + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return base + obj.Name()
}

// mention records what the declaration `from` refers to inside n.
func (g *reachGraph) mention(from string, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			switch obj := g.info.Uses[n].(type) {
			case *types.Func, *types.TypeName:
				if to := g.reachName(obj); to != "" {
					g.edges[from] = append(g.edges[from], to)
				}
			}
		case *ast.SelectorExpr:
			if sel := g.info.Selections[n]; sel != nil && sel.Kind() != types.FieldVal && types.IsInterface(sel.Recv()) {
				g.calls[from] = append(g.calls[from], n.Sel.Name)
			}
		}
		return true
	})
}

// load type-checks one module package and adds its declarations to the graph.
func (g *reachGraph) load(importPath, dir string, goFiles []string) error {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(g.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: g}).Check(importPath, g.fset, files, g.info)
	if err != nil {
		return err
	}
	g.pkgs[importPath] = pkg
	initNode := path.Base(importPath) + ".init"
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := g.reachName(g.info.Defs[d.Name])
				if d.Recv == nil && d.Name.Name == "init" {
					name = initNode
				} else {
					g.funcs[name] = g.fset.Position(d.Pos())
				}
				g.mention(name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						tn := g.info.Defs[spec.Name].(*types.TypeName)
						g.types[g.reachName(tn)] = tn
						g.mention(g.reachName(tn), spec)
					case *ast.ValueSpec:
						g.mention(initNode, spec)
					}
				}
			}
		}
	}
	return nil
}

// reachable is the fixpoint from the roots: declarations mention
// declarations, and a mentioned type brings in the methods dynamic dispatch
// can land on.
func (g *reachGraph) reachable(roots []string) map[string]bool {
	var stdIfaces []*types.Interface
	stdIfaces = append(stdIfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
		if g.pkgs[p.Path()] != nil {
			return
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					stdIfaces = append(stdIfaces, it)
				}
			}
		}
	}
	for _, p := range g.pkgs {
		visit(p)
	}
	// stdCalled: the methods of tn the standard library can call behind an
	// interface of its own. A generic type is not instantiated here, so it is
	// matched by method name alone.
	stdCalled := func(tn *types.TypeName) map[string]bool {
		out := map[string]bool{}
		named, _ := tn.Type().(*types.Named)
		generic := named != nil && named.TypeParams().Len() > 0
		ptr := types.NewPointer(tn.Type())
		for _, it := range stdIfaces {
			if generic || types.Implements(tn.Type(), it) || types.Implements(ptr, it) {
				for i := 0; i < it.NumMethods(); i++ {
					out[it.Method(i).Name()] = true
				}
			}
		}
		return out
	}

	live := map[string]bool{}
	called := map[string]bool{}
	var queue []string
	mark := func(n string) bool {
		if n == "" || live[n] {
			return false
		}
		live[n] = true
		queue = append(queue, n)
		return true
	}
	for _, r := range roots {
		mark(r)
	}
	hidden := map[string]map[string]bool{}
	for changed := true; changed; {
		for len(queue) > 0 {
			n := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, to := range g.edges[n] {
				mark(to)
			}
			for _, m := range g.calls[n] {
				called[m] = true
			}
		}
		changed = false
		for name, tn := range g.types {
			if !live[name] || types.IsInterface(tn.Type()) {
				continue
			}
			if hidden[name] == nil {
				hidden[name] = stdCalled(tn)
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj()
				if (called[m.Name()] || hidden[name][m.Name()]) && mark(g.reachName(m)) {
					changed = true
				}
			}
		}
	}
	return live
}

func TestEveryFunctionReachable(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-json=ImportPath,Name,Dir,GoFiles,Standard,Deps", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	// The source importer would run cgo for net and os/user; the pure-Go
	// files declare the same API.
	build.Default.CgoEnabled = false
	g := &reachGraph{
		fset: token.NewFileSet(),
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs:  map[string]*types.Package{},
		edges: map[string][]string{},
		calls: map[string][]string{},
		types: map[string]*types.TypeName{},
		funcs: map[string]token.Position{},
	}
	g.std = importer.ForCompiler(g.fset, "source", nil).(types.ImporterFrom)

	var roots []string
	linked := map[string]bool{} // path.Base of every package a main package links
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct {
			ImportPath, Name, Dir string
			GoFiles, Deps         []string
			Standard              bool
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		for other := range g.pkgs {
			if path.Base(other) == path.Base(p.ImportPath) {
				t.Fatalf("%s and %s share a last path element; functions are named by it", other, p.ImportPath)
			}
		}
		if err := g.load(p.ImportPath, p.Dir, p.GoFiles); err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		if p.Name == "main" {
			roots = append(roots, path.Base(p.ImportPath)+".main")
			for _, dep := range append(p.Deps, p.ImportPath) {
				linked[path.Base(dep)] = true
			}
		}
	}
	for importPath := range g.pkgs {
		if base := path.Base(importPath); linked[base] {
			roots = append(roots, base+".init")
		}
	}
	live := g.reachable(roots)

	// The keep-list: exact names, or "prefix.*" for every function under a
	// package or type no binary links (internal/faultinject).
	kept := map[string]bool{}
	f, err := os.Open(reachKeepFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if sc.Text() == "" || strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		name, reason, _ := strings.Cut(sc.Text(), "\t")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s carries no reason (want name<TAB>reason)", reachKeepFile, line, name)
		}
		match := func(fn string) bool { return fn == name }
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			match = func(fn string) bool { return strings.HasPrefix(fn, prefix) }
		}
		covered, reached := 0, ""
		for fn := range g.funcs {
			if match(fn) {
				kept[fn] = true
				covered++
				if live[fn] {
					reached = fn
				}
			}
		}
		switch {
		case covered == 0:
			t.Errorf("%s:%d: %s names nothing that exists — drop the entry", reachKeepFile, line, name)
		case reached != "":
			t.Errorf("%s:%d: %s is reachable from a main package now — drop the entry", reachKeepFile, line, reached)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var dead []string
	root, _ := os.Getwd()
	for name, pos := range g.funcs {
		if !live[name] && !kept[name] {
			file, _ := filepath.Rel(root, pos.Filename)
			dead = append(dead, fmt.Sprintf("%s\t%s:%d", name, file, pos.Line))
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d functions no main package can reach and %s does not list — delete each with the tests that only test it, or list it with a reason:\n%s",
			len(dead), reachKeepFile, strings.Join(dead, "\n"))
	}
}
