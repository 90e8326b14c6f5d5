package edgescope

// The function-level reachability gate: every non-test function in the
// module is reachable from a main package (the binaries, the examples,
// bench/e2e) or is listed, with a reason, in scripts/reach_keep — and every
// entry of that list names a function that exists and is still unreachable,
// so the list can only shrink. scripts/ci.sh's orphan-package check is the
// cheaper per-package form of the same rule.
//
// The option gate, TestEveryOptionSet, is the same rule one layer down:
// every field of an exported struct type named *Config or *Options is set by
// non-test code — a composite-literal key or an assignment, main packages
// included — outside its own type's fill method, or is listed in the same
// file as pkg.Type.Field with a reason. An option only tests set is a second
// configuration nothing ships; make it a constant instead.
//
// The field gate, TestEveryFieldRead, asks the same of data: every field of a
// non-test struct is read by non-test code, main packages included. A write
// is the direct left side of an assignment or an increment, or a key of a
// composite literal; every other selection of the field is a read, and a
// promoted selection also reads each embedded field on its path. A struct
// compared whole (== or a map key) reads every field, and an embedded field
// that promotes methods is read by the dynamic calls that land on them.
// Structs with any struct tag are wire or disk formats and are exempt by
// that rule; any other field nothing reads is deleted, or listed as
// pkg.Type.Field.
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
	"sync"
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

	options map[string]token.Position // every field of an exported *Config/*Options struct, by "pkg.Type.Field"
	fieldOf map[*types.Var]string     // those fields' objects → their names
	written map[*types.Var]bool       // struct fields set in non-test code outside their type's fill

	fields   map[string]token.Position  // every field of an untagged non-test struct, by "pkg.Type.Field"
	fieldVar map[*types.Var]string      // those fields' objects → their names
	stores   map[*ast.SelectorExpr]bool // field selections that are the direct left side of a write
	compared []types.Type               // struct types used as map keys or operands of == and !=
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
		g.addFields(f)
		g.noteCompared(f)
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
				g.noteWrites(fillOf(g.info, d), d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						tn := g.info.Defs[spec.Name].(*types.TypeName)
						g.types[g.reachName(tn)] = tn
						g.mention(g.reachName(tn), spec)
						g.addOptions(tn)
					case *ast.ValueSpec:
						g.mention(initNode, spec)
						g.noteWrites(nil, spec)
					}
				}
			}
		}
	}
	return nil
}

// addOptions lists the fields of tn when it is an exported struct type
// named *Config or *Options.
func (g *reachGraph) addOptions(tn *types.TypeName) {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok || !tn.Exported() || !(strings.HasSuffix(tn.Name(), "Config") || strings.HasSuffix(tn.Name(), "Options")) {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		name := g.reachName(tn) + "." + f.Name()
		g.options[name] = g.fset.Position(f.Pos())
		g.fieldOf[f] = name
	}
}

// addFields lists the fields of every struct type f declares, at package
// level or inside a function, unless one of them carries a tag: a tagged
// struct is a wire or disk format, whose fields the encoder reads.
func (g *reachGraph) addFields(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := spec.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, fl := range st.Fields.List {
			if fl.Tag != nil {
				return true
			}
		}
		tn := g.info.Defs[spec.Name].(*types.TypeName)
		s := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < s.NumFields(); i++ {
			if v := s.Field(i); v.Name() != "_" {
				name := path.Base(tn.Pkg().Path()) + "." + tn.Name() + "." + v.Name()
				g.fields[name] = g.fset.Position(v.Pos())
				g.fieldVar[v] = name
			}
		}
		return true
	})
}

// noteCompared records the struct types f hashes or compares whole: the key
// of a map type, an operand of == or !=. Either reads every field.
func (g *reachGraph) noteCompared(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.MapType:
			g.compared = append(g.compared, g.info.TypeOf(n.Key))
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				g.compared = append(g.compared, g.info.TypeOf(n.X))
			}
		}
		return true
	})
}

// read is every listed field non-test code reads: the field of every
// selection but a store, the embedded fields on the path of every selection
// (stores included), every field of a struct compared whole, and every
// embedded field that promotes a method. Fields of generic types count as
// their Origin.
func (g *reachGraph) read() map[string]bool {
	out := map[string]bool{}
	mark := func(v *types.Var) {
		if name, ok := g.fieldVar[v.Origin()]; ok {
			out[name] = true
		}
	}
	// An embedded field that promotes methods is read by the dynamic calls
	// that land on them (a Frontend served as its http.Handler), which no
	// selection shows.
	for v := range g.fieldVar {
		if v.Embedded() && (types.NewMethodSet(v.Type()).Len() > 0 || types.NewMethodSet(types.NewPointer(v.Type())).Len() > 0) {
			mark(v)
		}
	}
	for _, t := range g.compared {
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				mark(st.Field(i))
			}
		}
	}
	for expr, sel := range g.info.Selections {
		if sel.Kind() == types.MethodExpr {
			continue
		}
		t := sel.Recv()
		idx := sel.Index()
		for i, k := range idx {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			if i == len(idx)-1 {
				if sel.Kind() == types.FieldVal && !g.stores[expr] {
					mark(sel.Obj().(*types.Var))
				}
				break
			}
			f := t.Underlying().(*types.Struct).Field(k)
			mark(f)
			t = f.Type()
		}
	}
	return out
}

// fillOf is the struct a `fill` method's receiver names — the defaults it
// writes are not a caller setting an option — or nil for any other function.
func fillOf(info *types.Info, d *ast.FuncDecl) *types.Struct {
	if d.Recv == nil || d.Name.Name != "fill" {
		return nil
	}
	recv := info.Defs[d.Name].(*types.Func).Signature().Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	st, _ := recv.Underlying().(*types.Struct)
	return st
}

// noteWrites records every struct field n sets: a key of a keyed composite
// literal, or the field selected on the left of an assignment or an
// increment. Fields of own (the receiver of a fill method) do not count.
func (g *reachGraph) noteWrites(own *types.Struct, n ast.Node) {
	write := func(v *types.Var) {
		if v == nil || !v.IsField() {
			return
		}
		if own != nil {
			for i := 0; i < own.NumFields(); i++ {
				if own.Field(i) == v {
					return
				}
			}
		}
		g.written[v] = true
	}
	lhs := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := g.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				write(s.Obj().(*types.Var))
				g.stores[sel] = true
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						v, _ := g.info.Uses[id].(*types.Var)
						write(v)
					}
				}
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(n.X)
		}
		return true
	})
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

// module is the type-checked module, loaded once for both gates.
var module struct {
	once  sync.Once
	g     *reachGraph
	roots []string // main, and init of every package a main package links
	err   error
}

// loadModule type-checks every non-test file of the module into a reachGraph.
func loadModule(t *testing.T) (*reachGraph, []string) {
	t.Helper()
	module.once.Do(func() { module.g, module.roots, module.err = buildGraph() })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.g, module.roots
}

func buildGraph() (*reachGraph, []string, error) {
	out, err := exec.Command("go", "list", "-deps", "-json=ImportPath,Name,Dir,GoFiles,Standard,Deps", "./...").Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v", err)
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
			Types:      map[ast.Expr]types.TypeAndValue{},
		},
		pkgs:     map[string]*types.Package{},
		edges:    map[string][]string{},
		calls:    map[string][]string{},
		types:    map[string]*types.TypeName{},
		funcs:    map[string]token.Position{},
		options:  map[string]token.Position{},
		fieldOf:  map[*types.Var]string{},
		written:  map[*types.Var]bool{},
		fields:   map[string]token.Position{},
		fieldVar: map[*types.Var]string{},
		stores:   map[*ast.SelectorExpr]bool{},
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
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		for other := range g.pkgs {
			if path.Base(other) == path.Base(p.ImportPath) {
				return nil, nil, fmt.Errorf("%s and %s share a last path element; functions are named by it", other, p.ImportPath)
			}
		}
		if err := g.load(p.ImportPath, p.Dir, p.GoFiles); err != nil {
			return nil, nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
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
	return g, roots, nil
}

// keepEntry is one line of scripts/reach_keep: an exact function or option
// field name, or "prefix.*" for everything under a package or type.
type keepEntry struct {
	line int
	name string
}

func (e keepEntry) match(name string) bool {
	if prefix, ok := strings.CutSuffix(e.name, "*"); ok {
		return strings.HasPrefix(name, prefix)
	}
	return name == e.name
}

// readKeep parses scripts/reach_keep, failing any entry without a reason.
func readKeep(t *testing.T) []keepEntry {
	t.Helper()
	f, err := os.Open(reachKeepFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var keep []keepEntry
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if sc.Text() == "" || strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		name, reason, _ := strings.Cut(sc.Text(), "\t")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s carries no reason (want name<TAB>reason)", reachKeepFile, line, name)
		}
		keep = append(keep, keepEntry{line, name})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return keep
}

// unlisted formats the names missing from kept, with their positions, sorted.
func unlisted(names map[string]token.Position, ok func(string) bool) []string {
	var out []string
	root, _ := os.Getwd()
	for name, pos := range names {
		if !ok(name) {
			file, _ := filepath.Rel(root, pos.Filename)
			out = append(out, fmt.Sprintf("%s\t%s:%d", name, file, pos.Line))
		}
	}
	sort.Strings(out)
	return out
}

func TestEveryFunctionReachable(t *testing.T) {
	g, roots := loadModule(t)
	live := g.reachable(roots)

	kept := map[string]bool{}
	for _, e := range readKeep(t) {
		covered, reached := 0, ""
		for fn := range g.funcs {
			if e.match(fn) {
				kept[fn] = true
				covered++
				if live[fn] {
					reached = fn
				}
			}
		}
		for field := range g.options {
			if e.match(field) {
				covered++
			}
		}
		for field := range g.fields {
			if e.match(field) {
				covered++
			}
		}
		switch {
		case covered == 0:
			t.Errorf("%s:%d: %s names no function or field that exists — drop the entry", reachKeepFile, e.line, e.name)
		case reached != "":
			t.Errorf("%s:%d: %s is reachable from a main package now — drop the entry", reachKeepFile, e.line, reached)
		}
	}

	if dead := unlisted(g.funcs, func(fn string) bool { return live[fn] || kept[fn] }); len(dead) > 0 {
		t.Errorf("%d functions no main package can reach and %s does not list — delete each with the tests that only test it, or list it with a reason:\n%s",
			len(dead), reachKeepFile, strings.Join(dead, "\n"))
	}
}

func TestEveryOptionSet(t *testing.T) {
	g, _ := loadModule(t)
	set := map[string]bool{}
	for v := range g.written {
		if name, ok := g.fieldOf[v]; ok {
			set[name] = true
		}
	}

	kept := map[string]bool{}
	for _, e := range readKeep(t) {
		for field := range g.options {
			if !e.match(field) {
				continue
			}
			kept[field] = true
			if set[field] {
				t.Errorf("%s:%d: %s is set by non-test code now — drop the entry", reachKeepFile, e.line, field)
			}
		}
	}

	structs := map[string]bool{}
	for field := range g.options {
		structs[field[:strings.LastIndexByte(field, '.')]] = true
	}
	t.Logf("%d settable fields in %d exported *Config/*Options types: %d set by non-test code, %d listed in %s",
		len(g.options), len(structs), len(set), len(kept), reachKeepFile)

	if unset := unlisted(g.options, func(f string) bool { return set[f] || kept[f] }); len(unset) > 0 {
		t.Errorf("%d option fields no non-test code sets outside their type's fill, and %s does not list — make each a constant (or delete it with the mode it selects), or list it with a reason:\n%s",
			len(unset), reachKeepFile, strings.Join(unset, "\n"))
	}
}

func TestEveryFieldRead(t *testing.T) {
	g, _ := loadModule(t)
	read := g.read()

	kept := map[string]bool{}
	for _, e := range readKeep(t) {
		matched, stale := false, true
		for field := range g.fields {
			if e.match(field) {
				matched = true
				kept[field] = true
				stale = stale && read[field]
			}
		}
		for name := range g.funcs {
			stale = stale && !e.match(name)
		}
		for field := range g.options {
			stale = stale && !e.match(field)
		}
		if matched && stale {
			t.Errorf("%s:%d: every field %s names is read by non-test code now — drop the entry", reachKeepFile, e.line, e.name)
		}
	}
	t.Logf("%d fields in untagged non-test structs: %d read by non-test code, %d listed in %s",
		len(g.fields), len(read), len(kept), reachKeepFile)

	if unread := unlisted(g.fields, func(f string) bool { return read[f] || kept[f] }); len(unread) > 0 {
		t.Errorf("%d struct fields no non-test code reads, and %s does not list — delete each (keep any random draw that set it), or list it with a reason:\n%s",
			len(unread), reachKeepFile, strings.Join(unread, "\n"))
	}
}
