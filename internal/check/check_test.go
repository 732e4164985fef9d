package check

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
)

// siblings builds two sibling 1x1 convs a (8 atoms) and b (2 atoms) over
// one input, joined by an eltwise add, and returns its DAG with the atom
// ID ranges of a, b and the add.
func siblings(t *testing.T) (d *atom.DAG, a, b, add [2]int) {
	t.Helper()
	g := graph.New("sib")
	in := g.AddLayer("input", graph.OpInput, graph.Shape{Ho: 16, Wo: 4, Co: 4})
	la := g.AddLayer("a", graph.OpConv, graph.ConvShape(16, 4, 4, 4, 1, 1, 0), in)
	lb := g.AddLayer("b", graph.OpConv, graph.ConvShape(16, 4, 4, 4, 1, 1, 0), in)
	ladd := g.AddLayer("add", graph.OpEltwise, graph.EltwiseShape(16, 4, 4), la, lb)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	d, err := atom.Build(g, 1, atom.Spec{la: {Hp: 2, Wp: 4, Cop: 4}, lb: {Hp: 8, Wp: 4, Cop: 4}})
	if err != nil {
		t.Fatal(err)
	}
	span := func(lid int) [2]int {
		lo, hi := d.AtomRange(0, lid)
		return [2]int{lo, hi}
	}
	return d, span(la), span(lb), span(ladd)
}

// ids lists the atom IDs of a range.
func ids(r [2]int) []int {
	var out []int
	for id := r[0]; id < r[1]; id++ {
		out = append(out, id)
	}
	return out
}

func TestRounds(t *testing.T) {
	d, a, b, add := siblings(t)
	if a[1]-a[0] != 8 || b[1]-b[0] != 2 || add[1]-add[0] != 1 {
		t.Fatalf("atoms per layer %v %v %v, want 8, 2 and 1", a, b, add)
	}
	as, bs, adds := ids(a), ids(b), ids(add)
	input := 0 // the input layer's atom
	if d.Atoms[input].Task.Kind != graph.OpInput {
		t.Fatalf("atom 0 is a %v, want the input", d.Atoms[input].Task.Kind)
	}
	valid := [][]int{as[:4], as[4:], bs, adds}
	for _, c := range []struct {
		name    string
		rounds  [][]int
		engines int
		want    string // "" accepts
	}{
		{"valid", valid, 4, ""},
		{"valid on more engines", [][]int{as[:4], slices.Concat(as[4:], bs), adds}, 8, ""},
		{"no engines", valid, 0, "0 engines"},
		{"empty round", [][]int{as[:4], {}, as[4:], bs, adds}, 4, "round 1 is empty"},
		{"over budget", [][]int{as[:5], as[5:], bs, adds}, 4, "over the engine count"},
		{"duplicate atom", [][]int{as[:4], as[4:], bs, {as[0]}, adds}, 4, "runs twice"},
		{"unknown atom", [][]int{as[:4], as[4:], bs, adds, {d.NumAtoms()}}, 4, "unknown atom"},
		{"negative atom", [][]int{{-1}}, 4, "unknown atom"},
		{"virtual input", [][]int{{input}, as[:4], as[4:], bs, adds}, 4, "virtual input atom"},
		{"missing atoms", [][]int{as[:4], as[4:], bs}, 4, "never runs"},
		{"dependency broken", [][]int{adds, as[:4], as[4:], bs}, 4, "dependency broken"},
		{"producer in its consumer's round", [][]int{as[:4], as[4:], slices.Concat(bs, adds)}, 4, "dependency broken"},
	} {
		err := Rounds(d, c.rounds, c.engines)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

// TestReportNeedsLegalRounds checks that Report rejects an illegal
// schedule with Rounds' error before reading any total.
func TestReportNeedsLegalRounds(t *testing.T) {
	d, a, _, _ := siblings(t)
	err := Report(d, [][]int{ids(a)}, Totals{Engines: 4})
	if want := Rounds(d, [][]int{ids(a)}, 4); err == nil || err.Error() != want.Error() {
		t.Errorf("Report error %v, Rounds says %v", err, want)
	}
}

// allowedImports is what the validator may build on: the atomic DAG,
// the layer graph, the engine model's Cycle(atom) and the energy model.
// Anything that produces a solution (schedule, sim, mapping, buffer,
// noc, cost, anneal) would make the check share code with what it
// checks.
var allowedImports = map[string]bool{
	"github.com/atomic-dataflow/atomicflow/internal/atom":   true,
	"github.com/atomic-dataflow/atomicflow/internal/graph":  true,
	"github.com/atomic-dataflow/atomicflow/internal/engine": true,
	"github.com/atomic-dataflow/atomicflow/internal/energy": true,
}

func TestImports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			// A standard-library path has no dot in its first element.
			std := !strings.Contains(strings.SplitN(path, "/", 2)[0], ".")
			if !std && !allowedImports[path] {
				t.Errorf("%s imports %s, outside the allowed set", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test Go files found")
	}
}
