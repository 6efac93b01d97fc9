package tango

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestCensus holds every exported name under internal/ to a reader in
// shipped code. It type-checks every package of the module from source
// (non-test files only, filtered by build constraints) and fails on:
//
//   - unused: an exported func, type, const, var or method that no
//     shipped file refers to. A method also counts as used when it is
//     String or Error, or when its receiver implements, under that
//     method's name, an interface that shipped code declares or names
//     (including as a parameter of a function it calls);
//   - unset: an exported struct field that no shipped code sets, through
//     a composite literal (keyed or positional), an assignment, ++/--,
//     &, a pointer-method call, or a write through a chain of struct
//     fields rooted at it (sw.Stats.Encapped++ sets Stats);
//   - unread: an exported struct field that shipped code only writes.
//
// The public constructors' inputs are held to a caller: every exported
// field of a root-package struct whose name ends in Options that no
// shipped code outside the root package sets is unset too (the root
// package writing its own defaults back does not count).
//
// The public API is held to its programs (the root rule): an exported
// root-package func or method that no package under cmd/ or examples/
// and no Example function of example_test.go refers to is a root
// finding. String and Error are exempt, as above.
//
// A field with a json tag counts as set and read. A finding either goes
// or gets a line in testdata/census.txt with a one-line reason, and a
// line that matches no finding fails too, so the list cannot go stale.
// The references come from every package of the module, benchmark/,
// cmd/ and examples/ included; the root package is the public API and
// package main is a program, so neither is otherwise checked.
//
// The design subtest holds DESIGN.md's module map (§3) to the module and
// its experiment index (§4) to the test files, the file to its byte
// budget, and every reference to one of its sections, anywhere in the
// tree, to a heading.
func TestCensus(t *testing.T) {
	m := loadModule(t)
	t.Run("names", func(t *testing.T) {
		allow := readAllowlist(t, filepath.Join("testdata", "census.txt"))
		for _, f := range m.census() {
			if allow[f.name] {
				delete(allow, f.name)
				continue
			}
			t.Errorf("%s: %s %s", f.pos, f.kind, f.name)
		}
		var stale []string
		for name := range allow {
			stale = append(stale, name)
		}
		sort.Strings(stale)
		for _, name := range stale {
			t.Errorf("testdata/census.txt: %s matches no finding; delete it", name)
		}
	})
	t.Run("design", func(t *testing.T) {
		m.checkDesign(t, "DESIGN.md")
		checkDesignRefs(t, "DESIGN.md")
	})
}

type modPkg struct {
	path  string // import path
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type module struct {
	fset  *token.FileSet
	pkgs  map[string]*modPkg
	list  []*modPkg             // dependency order
	tests map[string]bool       // top-level func names in _test.go files
	shown map[types.Object]bool // what cmd/, examples/ and the Example functions refer to
}

const modulePath = "tango"

// loadModule parses and type-checks every package of the module, and
// collects the names its test files declare.
func loadModule(t *testing.T) *module {
	t.Helper()
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*modPkg{}, tests: map[string]bool{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if path != "." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		dir = filepath.Clean(dir)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					m.tests[fd.Name.Name] = true
				}
			}
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := modulePath
		if dir != "." {
			ip += "/" + filepath.ToSlash(dir)
		}
		p := m.pkgs[ip]
		if p == nil {
			p = &modPkg{path: ip}
			m.pkgs[ip] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	done := map[*modPkg]bool{}
	var visit func(p *modPkg)
	visit = func(p *modPkg) {
		if done[p] {
			return
		}
		done[p] = true
		for _, f := range p.files {
			for _, is := range f.Imports {
				if dep := m.pkgs[strings.Trim(is.Path.Value, `"`)]; dep != nil {
					visit(dep)
				}
			}
		}
		m.list = append(m.list, p)
	}
	paths := make([]string, 0, len(m.pkgs))
	for ip := range m.pkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		visit(m.pkgs[ip])
	}

	imp := &modImporter{std: importer.ForCompiler(m.fset, "source", nil), mod: map[string]*types.Package{}}
	for _, p := range m.list {
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		p.types, err = conf.Check(p.path, m.fset, p.files, p.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.path, err)
		}
		imp.mod[p.path] = p.types
	}

	f, err := parser.ParseFile(m.fset, "example_test.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: imp}).Check(modulePath+"_test", m.fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("type-check example_test.go: %v", err)
	}
	m.shown = map[types.Object]bool{}
	for _, p := range m.list {
		if strings.HasPrefix(p.path, modulePath+"/cmd/") || strings.HasPrefix(p.path, modulePath+"/examples/") {
			for _, obj := range p.info.Uses {
				m.shown[origin(obj)] = true
			}
		}
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Example") {
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					m.shown[origin(info.Uses[id])] = true
				}
				return true
			})
		}
	}
	return m
}

type modImporter struct {
	std types.Importer
	mod map[string]*types.Package
}

func (i *modImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.mod[path]; ok {
		return p, nil
	}
	return i.std.Import(path)
}

type finding struct {
	pos  token.Position
	kind string // unused, unset, unread or root
	name string // package.Name[.Member...]
}

// census returns every finding of the four rules, in file order.
func (m *module) census() []finding {
	decls := map[types.Object]string{} // checked object → census name
	for _, p := range m.list {
		if strings.HasPrefix(p.path, modulePath+"/internal/") {
			declsOf(p, decls)
		}
	}

	// Every use in shipped code, less a function's uses of itself.
	body := map[types.Object][2]token.Pos{}
	for _, p := range m.list {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					body[p.info.Defs[fd.Name]] = [2]token.Pos{fd.Pos(), fd.End()}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, p := range m.list {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if b, ok := body[obj]; ok && id.Pos() >= b[0] && id.Pos() < b[1] {
				continue
			}
			used[obj] = true
		}
	}

	// How shipped code touches each field; callerSet leaves out the root
	// package's own writes.
	set, read, callerSet := map[*types.Var]bool{}, map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, p := range m.list {
		pset := map[*types.Var]bool{}
		writes := fieldWrites(p, pset)
		for v := range pset {
			set[v] = true
			callerSet[v] = callerSet[v] || p.path != modulePath
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				read[v.Origin()] = true
			}
		}
	}

	ifaces := m.interfaces()
	var out []finding
	for obj, name := range decls {
		kind := ""
		switch obj := obj.(type) {
		case *types.Var:
			if obj.IsField() {
				switch {
				case !set[obj] && !read[obj]:
					kind = "unused"
				case !set[obj]:
					kind = "unset"
				case !read[obj]:
					kind = "unread"
				}
				break
			}
			if !used[obj] {
				kind = "unused"
			}
		case *types.Func:
			if !used[obj] && !isCalledImplicitly(obj, ifaces) {
				kind = "unused"
			}
		default:
			if !used[obj] {
				kind = "unused"
			}
		}
		if kind != "" {
			out = append(out, finding{m.fset.Position(obj.Pos()), kind, name})
		}
	}
	root := m.pkgs[modulePath].types
	for _, n := range root.Scope().Names() {
		tn, ok := root.Scope().Lookup(n).(*types.TypeName)
		if !ok || !tn.Exported() || !strings.HasSuffix(n, "Options") {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !callerSet[f] {
					out = append(out, finding{m.fset.Position(f.Pos()), "unset", root.Name() + "." + n + "." + f.Name()})
				}
			}
		}
	}
	out = append(out, m.rootFindings()...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// rootFindings applies the root rule: every exported root-package func,
// and every exported method of a root type but String and Error, that
// no program refers to.
func (m *module) rootFindings() []finding {
	var out []finding
	check := func(fn *types.Func, name string) {
		if fn.Exported() && !m.shown[fn] {
			out = append(out, finding{m.fset.Position(fn.Pos()), "root", name})
		}
	}
	scope := m.pkgs[modulePath].types.Scope()
	for _, n := range scope.Names() {
		switch obj := scope.Lookup(n).(type) {
		case *types.Func:
			check(obj, modulePath+"."+n)
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Name() != "String" && fn.Name() != "Error" {
					check(fn, modulePath+"."+n+"."+fn.Name())
				}
			}
		}
	}
	return out
}

// declsOf adds p's checked declarations to decls: exported package-level
// names, exported methods of every named type, and exported fields of
// every struct type a package-level declaration spells out. A field with
// a json tag is read and written by reflection, so it is not checked.
func declsOf(p *modPkg, decls map[types.Object]string) {
	pkg := p.types.Name()
	scope := p.types.Scope()
	for _, n := range scope.Names() {
		obj := scope.Lookup(n)
		if obj.Exported() {
			decls[obj] = pkg + "." + n
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
			if fn := named.Method(i); fn.Exported() {
				decls[fn] = pkg + "." + n + "." + fn.Name()
			}
		}
	}
	var fields func(prefix string, e ast.Expr)
	fields = func(prefix string, e ast.Expr) {
		switch e := e.(type) {
		case *ast.StructType:
			for _, f := range e.Fields.List {
				if f.Tag != nil {
					tag := reflect.StructTag(strings.Trim(f.Tag.Value, "`"))
					if _, ok := tag.Lookup("json"); ok {
						continue
					}
				}
				for _, id := range f.Names {
					if id.IsExported() {
						decls[p.info.Defs[id]] = prefix + "." + id.Name
					}
					fields(prefix+"."+id.Name, f.Type)
				}
			}
		case *ast.StarExpr:
			fields(prefix, e.X)
		case *ast.ArrayType:
			fields(prefix, e.Elt)
		case *ast.MapType:
			fields(prefix, e.Value)
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					fields(pkg+"."+s.Name.Name, s.Type)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						fields(pkg+"."+id.Name, s.Type)
					}
				}
			}
		}
	}
}

// fieldWrites marks in set every field p's code writes, and returns the
// field identifiers whose use is a write only.
func fieldWrites(p *modPkg, set map[*types.Var]bool) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	field := func(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return sel, s.Obj().(*types.Var).Origin()
		}
		return nil, nil
	}
	// chain walks down from a written location: each struct or array
	// valued field it passes through is written as well; a pointer, map
	// or slice field is read to find the location, and ends the chain.
	var chain func(e ast.Expr, addr bool)
	chain = func(e ast.Expr, addr bool) {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			sel, v := field(x)
			if v == nil {
				return
			}
			switch v.Type().Underlying().(type) {
			case *types.Pointer, *types.Map, *types.Slice:
				return
			}
			set[v] = true
			if !addr {
				writes[sel.Sel] = true
			}
			chain(sel.X, addr)
		case *ast.IndexExpr:
			chain(x.X, addr)
		}
	}
	// written marks the location e as written; addr means its address
	// escapes, so every use stays a read too.
	written := func(e ast.Expr, addr bool) {
		e = ast.Unparen(e)
		if sel, v := field(e); v != nil {
			set[v] = true
			if !addr {
				writes[sel.Sel] = true
			}
			chain(sel.X, addr)
			return
		}
		if ix, ok := e.(*ast.IndexExpr); ok {
			chain(ix.X, addr)
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					written(l, false)
				}
			case *ast.IncDecStmt:
				written(n.X, false)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					if n.Key != nil {
						written(n.Key, false)
					}
					if n.Value != nil {
						written(n.Value, false)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					written(n.X, true)
				}
			case *ast.SelectorExpr:
				// x.F.M() with a pointer receiver takes &x.F.
				s := p.info.Selections[n]
				if s == nil || s.Kind() != types.MethodVal {
					break
				}
				recv := s.Obj().(*types.Func).Type().(*types.Signature).Recv()
				if _, ptr := recv.Type().(*types.Pointer); !ptr {
					break
				}
				if _, ptr := p.info.Types[n.X].Type.Underlying().(*types.Pointer); !ptr {
					written(n.X, true)
				}
			case *ast.CompositeLit:
				tv, ok := p.info.Types[n]
				if !ok {
					break
				}
				st, ok := tv.Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := p.info.Uses[id].(*types.Var); ok {
								set[v.Origin()] = true
								writes[id] = true
							}
						}
						continue
					}
					set[st.Field(i).Origin()] = true
				}
			}
			return true
		})
	}
	return writes
}

// interfaces returns, by method name, every interface type shipped code
// declares or names, or passes a value to as a parameter.
func (m *module) interfaces() map[string][]*types.Interface {
	seen := map[*types.Interface]bool{}
	out := map[string][]*types.Interface{}
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			out[it.Method(i).Name()] = append(out[it.Method(i).Name()], it)
		}
	}
	for _, p := range m.list {
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, obj := range p.info.Uses {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, tv := range p.info.Types {
			add(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					add(sig.Params().At(i).Type())
				}
			}
		}
	}
	return out
}

// isCalledImplicitly reports whether a method is reached without being
// named: fmt calls String and Error, and an interface call reaches any
// implementation.
func isCalledImplicitly(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	if fn.Name() == "String" || fn.Name() == "Error" {
		return true
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); !ok || n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// readAllowlist reads lines of the form "name: reason"; several names
// may share one reason, separated by spaces.
func readAllowlist(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		names, reason, ok := strings.Cut(sc.Text(), ": ")
		if !ok || strings.TrimSpace(reason) == "" || strings.TrimSpace(names) == "" {
			t.Errorf("%s:%d: want \"name [name...]: reason\", got %q", path, n, sc.Text())
			continue
		}
		for _, name := range strings.Fields(names) {
			if allow[name] {
				t.Errorf("%s:%d: %s listed twice", path, n, name)
			}
			allow[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

var backticked = regexp.MustCompile("`([^`]+)`")

// checkDesign holds DESIGN.md §3 to the module (one row per package,
// every key type declared in its package) and §4 to the tests (every
// test its Test column names exists).
func (m *module) checkDesign(t *testing.T, path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := func(section string) [][]string {
		_, rest, ok := strings.Cut(string(b), "\n## "+section+" ")
		if !ok {
			t.Fatalf("%s: no section %s", path, section)
		}
		rest, _, _ = strings.Cut(rest, "\n## ")
		var out [][]string
		for _, line := range strings.Split(rest, "\n") {
			if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "|--") {
				continue
			}
			out = append(out, strings.Split(strings.Trim(line, "|"), "|"))
		}
		if len(out) < 2 {
			t.Fatalf("%s: section %s has no table", path, section)
		}
		return out[1:] // the header
	}

	listed := map[string]bool{}
	for _, row := range rows("3.") {
		name := backticked.FindStringSubmatch(row[0])
		if name == nil {
			t.Errorf("%s §3: no package in row %q", path, row[0])
			continue
		}
		ip := modulePath
		if name[1] != modulePath {
			ip += "/" + name[1]
		}
		p := m.pkgs[ip]
		if p == nil {
			t.Errorf("%s §3: %s is not a package", path, name[1])
			continue
		}
		listed[ip] = true
		for _, k := range backticked.FindAllStringSubmatch(row[2], -1) {
			if !declares(p, k[1]) {
				t.Errorf("%s §3: key type %s is not declared in %s", path, k[1], ip)
			}
		}
	}
	for ip := range m.pkgs {
		if !listed[ip] {
			t.Errorf("%s §3: package %s has no row", path, ip)
		}
	}
	for _, row := range rows("4.") {
		for _, k := range backticked.FindAllStringSubmatch(row[2], -1) {
			if strings.HasPrefix(k[1], "Test") && !m.tests[k[1]] {
				t.Errorf("%s §4: no test named %s", path, k[1])
			}
		}
	}
}

// designBudget is the most bytes DESIGN.md may hold: a design record
// that outgrows it is narrating history, which CHANGES.md keeps.
const designBudget = 40000

var (
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. (.+)$`)
	// A reference may wrap, in prose or in a comment: the separators
	// skip white space and comment markers.
	designNumRef   = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)*§(\d+)`)
	designTitleRef = regexp.MustCompile(`DESIGN\.md,(?:\s|//|#)*"([^"]+)"`)
	codeSpan       = regexp.MustCompile("`[^`\n]*`")
)

// checkDesignRefs holds DESIGN.md to its budget, and every section
// reference in a text file of the tree — by number or by quoted title —
// to a heading of it. CHANGES.md is history and refers to the sections
// as they were; an inline code span quotes syntax and refers to nothing.
func checkDesignRefs(t *testing.T, path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > designBudget {
		t.Errorf("%s is %d B, over its %d B budget", path, len(b), designBudget)
	}
	nums, titles := map[string]bool{}, map[string]bool{}
	for _, h := range designHeading.FindAllStringSubmatch(string(b), -1) {
		nums[h[1]] = true
		titles[h[2]] = true
		// A reference may leave out the packages a title ends with.
		if short, _, ok := strings.Cut(h[2], " ("); ok {
			titles[short] = true
		}
	}
	err = filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if file == "CHANGES.md" {
			return nil
		}
		raw, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		if !utf8.Valid(raw) || bytes.IndexByte(raw, 0) >= 0 {
			return nil // not text
		}
		// Blank the spans byte for byte, so offsets still give lines.
		text := codeSpan.ReplaceAllStringFunc(string(raw), func(span string) string {
			return strings.Repeat(" ", len(span))
		})
		line := func(at int) int { return strings.Count(text[:at], "\n") + 1 }
		for _, r := range designNumRef.FindAllStringSubmatchIndex(text, -1) {
			if n := text[r[2]:r[3]]; !nums[n] {
				t.Errorf("%s:%d: DESIGN §%s names no section of %s", file, line(r[0]), n, path)
			}
		}
		for _, r := range designTitleRef.FindAllStringSubmatchIndex(text, -1) {
			var words []string
			for _, w := range strings.Fields(text[r[2]:r[3]]) {
				if w != "//" && w != "#" {
					words = append(words, w)
				}
			}
			if title := strings.Join(words, " "); !titles[title] {
				t.Errorf("%s:%d: %s has no section titled %q", file, line(r[0]), path, title)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// declares reports whether p declares name at package level or as a
// method or field of one of its types (core's PathLines).
func declares(p *modPkg, name string) bool {
	scope := p.types.Scope()
	if scope.Lookup(name) != nil {
		return true
	}
	for _, n := range scope.Names() {
		if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
			if obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, p.types, name); obj != nil {
				return true
			}
		}
	}
	return false
}
