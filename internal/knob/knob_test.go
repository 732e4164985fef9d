package knob

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"slices"
	"strings"
	"testing"
)

// row is one table entry as the tests see it.
type row struct {
	name, json, flag string
	check            func(t *testing.T)
}

func intRow[T int | int64](name string, k Int[T], max T) row {
	return row{name, k.JSON, k.Flag, func(t *testing.T) {
		if !(k.Min <= k.Def && k.Def <= k.Max) {
			t.Errorf("%s: default %d outside [%d,%d]", name, k.Def, k.Min, k.Max)
		}
		if got := k.Or(0); got != k.Def {
			t.Errorf("%s: Or(0) = %d, want the default %d", name, got, k.Def)
		}
		if k.Max == max {
			return // Max+1 overflows
		}
		v := k.Max + 1
		if err := k.Normalize(&v); err == nil || !strings.Contains(err.Error(), k.JSON) {
			t.Errorf("%s: Normalize(Max+1) = %v, want an error naming %q", name, err, k.JSON)
		}
	}}
}

func enumRow(name string, k Enum) row {
	return row{name, k.JSON, k.Flag, func(t *testing.T) {
		for i, want := range k.Names {
			b, err := k.Text(i)
			if err != nil || string(b) != want {
				t.Errorf("%s: Text(%d) = %q, %v; want %q", name, i, b, err, want)
			}
			var v int
			if err := k.Parse(b, &v); err != nil || v != i {
				t.Errorf("%s: Parse(%q) = %d, %v; want %d", name, b, v, err, i)
			}
		}
		if _, err := k.Text(len(k.Names)); err == nil {
			t.Errorf("%s: Text(%d) has a spelling", name, len(k.Names))
		}
		v := -1
		if err := k.Parse([]byte("nosuch"), &v); err == nil || v != -1 {
			t.Errorf("%s: Parse(nosuch) = %d, %v; want an error and no change", name, v, err)
		}
	}}
}

// table lists every knob. TestTableComplete keeps it in step with the
// declarations in knob.go.
func table() []row {
	return []row{
		intRow("Batch", Batch, math.MaxInt),
		intRow("Seed", Seed, math.MaxInt64),
		intRow("SAIters", SAIters, math.MaxInt),
		intRow("Chains", Chains, math.MaxInt),
		intRow("MaxTiles", MaxTiles, math.MaxInt),
		enumRow("Mode", Mode),
		intRow("TimeoutMS", TimeoutMS, math.MaxInt64),
		intRow("MeshW", MeshW, math.MaxInt),
		intRow("MeshH", MeshH, math.MaxInt),
		intRow("LinkBytes", LinkBytes, math.MaxInt),
		intRow("BufferBytes", BufferBytes, math.MaxInt),
		enumRow("Dataflow", Dataflow),
	}
}

func TestRows(t *testing.T) {
	for _, r := range table() {
		r.check(t)
	}
}

// TestNamesUnique fails if two knobs share a /solve field or a CLI flag.
func TestNamesUnique(t *testing.T) {
	json, flag := map[string]string{}, map[string]string{}
	for _, r := range table() {
		for _, n := range []struct {
			seen map[string]string
			name string
		}{{json, r.json}, {flag, r.flag}} {
			if n.name == "" {
				continue
			}
			if other, dup := n.seen[n.name]; dup {
				t.Errorf("%s and %s both use %q", other, r.name, n.name)
			}
			n.seen[n.name] = r.name
		}
	}
}

// TestTableComplete fails if knob.go declares an Int or Enum row that
// table does not list.
func TestTableComplete(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "knob.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, v := range vs.Values {
			lit, ok := v.(*ast.CompositeLit)
			if !ok {
				continue
			}
			typ := lit.Type
			if ix, ok := typ.(*ast.IndexExpr); ok {
				typ = ix.X
			}
			if id, ok := typ.(*ast.Ident); ok && (id.Name == "Int" || id.Name == "Enum") {
				declared = append(declared, vs.Names[i].Name)
			}
		}
		return true
	})
	var listed []string
	for _, r := range table() {
		listed = append(listed, r.name)
	}
	slices.Sort(declared)
	slices.Sort(listed)
	if !slices.Equal(declared, listed) {
		t.Errorf("knob.go declares %v, the test lists %v", declared, listed)
	}
}
