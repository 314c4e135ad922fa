package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allowedGlobals are the package-level variables of mutable type the tree
// may keep, keyed "dir.name", each with the reason it is not per-instance
// state. Everything else mutable belongs to a value its caller owns, so two
// daemons in one process never share counters, loggers or exports.
var allowedGlobals = map[string]string{
	"internal/route.protocols":       "protocol registry: written at init and by Register, read lock-free after",
	"internal/faults.models":         "fault-model registry: written at init and by Register, read lock-free after",
	"internal/expt.experiments":      "experiment registry: written at init only",
	"internal/expt.e16DefaultModels": "read-only table: E16's default fault models",
	"internal/core.reportOrder":      "read-only table: protocol reporting order",
	"internal/plot.palette":          "read-only table: figure colours",
	"internal/serve.failureClasses":  "read-only table: each routing outcome's status, exit code and retry rule",
}

// TestNoProcessGlobals parses every non-test package of the module and fails
// on a package-level var of atomic, sync mutex/pool/map, registry, map or
// slice type (directly, through a pointer, array or generic instance, or
// through a struct declared in the same package) that allowedGlobals does
// not list.
// Stale allow-list entries fail too.
func TestNoProcessGlobals(t *testing.T) {
	planted, err := parser.ParseFile(token.NewFileSet(), "planted.go",
		"package p\nimport \"sync/atomic\"\nvar hits atomic.Int64\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := mutableGlobals("p", []*ast.File{planted}); len(got) != 1 {
		t.Fatalf("the guard misses a planted atomic.Int64: %v", got)
	}

	pkgs := map[string][]*ast.File{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "ledger" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgs[dir] = append(pkgs[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for dir, files := range pkgs {
		for _, g := range mutableGlobals(dir, files) {
			seen[g.key] = true
			if _, ok := allowedGlobals[g.key]; !ok {
				t.Errorf("%s is a package-level %s: make it per-instance state, or list it in allowedGlobals with a reason", g.key, g.kind)
			}
		}
	}
	var stale []string
	for key := range allowedGlobals {
		if !seen[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("allowedGlobals lists %s, which is no longer a mutable global", key)
	}
}

// mutableGlobal is one flagged package-level variable.
type mutableGlobal struct{ key, kind string }

// mutableGlobals lists the package-level vars of mutable type in one
// package's files.
func mutableGlobals(dir string, files []*ast.File) []mutableGlobal {
	types := map[string]ast.Expr{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					types[ts.Name.Name] = ts.Type
				}
			}
		}
	}
	var out []mutableGlobal
	for _, f := range files {
		k := kinder{imports: map[string]string{}, types: types}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			k.imports[name] = path
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					kind := ""
					if vs.Type != nil {
						kind = k.ofType(vs.Type, map[string]bool{})
					} else if i < len(vs.Values) {
						kind = k.ofValue(vs.Values[i])
					}
					if kind != "" && name.Name != "_" {
						out = append(out, mutableGlobal{dir + "." + name.Name, kind})
					}
				}
			}
		}
	}
	return out
}

// kinder classifies type and value expressions of one file: the kind of
// mutable state they hold, or "" for none the syntax shows.
type kinder struct {
	imports map[string]string // local import name -> import path
	types   map[string]ast.Expr
}

func (k kinder) ofType(e ast.Expr, visiting map[string]bool) string {
	switch e := e.(type) {
	case *ast.MapType:
		return "map"
	case *ast.ArrayType:
		if e.Len == nil {
			return "slice"
		}
		return k.ofType(e.Elt, visiting)
	case *ast.StarExpr:
		return k.ofType(e.X, visiting)
	case *ast.IndexExpr:
		return k.ofType(e.X, visiting)
	case *ast.IndexListExpr:
		return k.ofType(e.X, visiting)
	case *ast.SelectorExpr:
		pkg, ok := e.X.(*ast.Ident)
		if !ok {
			return ""
		}
		switch path := k.imports[pkg.Name]; {
		case path == "sync/atomic":
			return "atomic." + e.Sel.Name
		case path == "sync" && (e.Sel.Name == "Mutex" || e.Sel.Name == "RWMutex" || e.Sel.Name == "Pool" || e.Sel.Name == "Map"):
			return "sync." + e.Sel.Name
		case path == "repro/internal/registry":
			return "registry." + e.Sel.Name
		}
	case *ast.Ident:
		if def, ok := k.types[e.Name]; ok && !visiting[e.Name] {
			visiting[e.Name] = true
			if kind := k.ofType(def, visiting); kind != "" {
				return e.Name + " (holds " + kind + ")"
			}
		}
	case *ast.StructType:
		for _, field := range e.Fields.List {
			if kind := k.ofType(field.Type, visiting); kind != "" {
				return kind
			}
		}
	}
	return ""
}

func (k kinder) ofValue(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.CompositeLit:
		if e.Type != nil {
			return k.ofType(e.Type, map[string]bool{})
		}
	case *ast.UnaryExpr:
		return k.ofValue(e.X)
	case *ast.CallExpr:
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			if (fun.Name == "make" || fun.Name == "new") && len(e.Args) > 0 {
				return k.ofType(e.Args[0], map[string]bool{})
			}
		case *ast.FuncLit:
			if res := fun.Type.Results; res != nil && len(res.List) == 1 {
				return k.ofType(res.List[0].Type, map[string]bool{})
			}
		}
	}
	return ""
}
