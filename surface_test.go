package atomicflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceModule is the root module's path (go.mod): a declaration in
// directory d has the import path surfaceModule/d.
const surfaceModule = "github.com/atomic-dataflow/atomicflow"

// surfaceAllow names the declarations in non-test internal/ files that
// may lack a non-test reference, each with the reason it stays there.
// Keys are "<dir>.<name>" for functions, types, variables and constants
// and "<dir>.(<receiver>).<name>" for methods.
var surfaceAllow = map[string]string{
	"internal/atom.FromLists": "mapping and schedule tests build hand-drawn DAGs with it, " +
		"and it fills unexported DAG fields that a _test.go file of another package cannot reach",
	"internal/engine.(*Dataflow).UnmarshalText": textUnmarshaler,
	"internal/schedule.(*Mode).UnmarshalText":   textUnmarshaler,
}

// textUnmarshaler is why an UnmarshalText method stays with no call by
// name: encoding/json (the /solve fields) and flag.TextVar (the CLI
// flags) call it through encoding.TextUnmarshaler.
const textUnmarshaler = "encoding/json and flag.TextVar call it through encoding.TextUnmarshaler"

// surfaceDecl is one declaration the guard checks.
type surfaceDecl struct {
	dir, key string // key as in surfaceAllow
	name     string
	method   bool
	pos      token.Position
}

// surfaceRefs is what the non-test Go files of the repo reference.
type surfaceRefs struct {
	bare     map[string]map[string]bool // dir -> unqualified identifiers used in it
	imported map[string]map[string]bool // import path -> names selected from it
	selector map[string]bool            // every selector name
}

// TestProductionSurface fails when a non-test internal/ file declares
// something no non-test Go file of the repo references: an exported
// top-level identifier, a function or a method. References count from
// the root package, cmd/, examples/, internal/ and the bench/ module.
// Functions, types, variables and constants match by package and name;
// methods match by selector name alone, which can miss a dead method but
// never flags a live one.
func TestProductionSurface(t *testing.T) {
	fset := token.NewFileSet()
	refs := surfaceRefs{
		bare:     map[string]map[string]bool{},
		imported: map[string]map[string]bool{},
		selector: map[string]bool{},
	}
	var decls []surfaceDecl
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		refs.add(f, dir)
		if strings.HasPrefix(dir, "internal/") {
			decls = append(decls, surfaceDecls(fset, f, dir)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no declarations found under internal/")
	}

	used := map[string]bool{}
	var dead []string
	for _, d := range decls {
		live := refs.selector[d.name]
		if !d.method {
			live = refs.bare[d.dir][d.name] || refs.imported[path.Join(surfaceModule, d.dir)][d.name]
		}
		if live {
			continue
		}
		if _, ok := surfaceAllow[d.key]; ok {
			used[d.key] = true
			continue
		}
		dead = append(dead, d.pos.String()+": "+d.key)
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s has no reference from a non-test Go file; delete it or move it into a _test.go file", s)
	}
	for key := range surfaceAllow {
		if !used[key] {
			t.Errorf("surfaceAllow entry %s is stale: it is referenced or gone", key)
		}
	}
}

// surfaceDecls lists the declarations of f the guard checks: every
// function and method, and every exported type, variable and constant.
func surfaceDecls(fset *token.FileSet, f *ast.File, dir string) []surfaceDecl {
	var out []surfaceDecl
	add := func(id *ast.Ident, recv string) {
		key := dir + "." + id.Name
		if recv != "" {
			key = dir + ".(" + recv + ")." + id.Name
		}
		out = append(out, surfaceDecl{dir: dir, key: key, name: id.Name, method: recv != "", pos: fset.Position(id.Pos())})
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			switch {
			case decl.Recv != nil:
				add(decl.Name, surfaceRecv(decl.Recv.List[0].Type))
			case decl.Name.Name != "init" && decl.Name.Name != "main" && decl.Name.Name != "_":
				add(decl.Name, "")
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						add(spec.Name, "")
					}
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.IsExported() {
							add(id, "")
						}
					}
				}
			}
		}
	}
	return out
}

// surfaceRecv spells a receiver type as "T" or "*T".
func surfaceRecv(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + surfaceRecv(e.X)
	case *ast.IndexExpr:
		return surfaceRecv(e.X)
	case *ast.IndexListExpr:
		return surfaceRecv(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// add records the references of file f in directory dir.
func (r surfaceRefs) add(f *ast.File, dir string) {
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	// Declared names, method receiver types and selected names are not
	// unqualified uses: a type whose only mentions are its own methods'
	// receivers is as dead as its methods.
	skip := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			skip[decl.Name] = true
			if decl.Recv != nil {
				ast.Inspect(decl.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					skip[spec.Name] = true
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						skip[id] = true
					}
				}
			}
		}
	}
	if r.bare[dir] == nil {
		r.bare[dir] = map[string]bool{}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			r.selector[n.Sel.Name] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					if r.imported[p] == nil {
						r.imported[p] = map[string]bool{}
					}
					r.imported[p][n.Sel.Name] = true
				}
			}
		case *ast.Ident:
			if !skip[n] {
				r.bare[dir][n.Name] = true
			}
		}
		return true
	})
}
