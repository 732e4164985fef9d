// Command adzoo inspects the bundled DNN workload zoo: it prints Table
// I-style characterization rows, and can dump a model's layer list or its
// Graphviz DOT rendering.
//
// Usage:
//
//	adzoo                      # characterization of every bundled model
//	adzoo -model pnasnet       # per-layer dump
//	adzoo -model pnascell -dot # DOT graph on stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	af "github.com/atomic-dataflow/atomicflow"
	"github.com/atomic-dataflow/atomicflow/internal/models"
)

func main() {
	var (
		model    = flag.String("model", "", "dump one model's layers instead of the summary table")
		dot      = flag.Bool("dot", false, "emit Graphviz DOT for -model")
		export   = flag.Bool("export", false, "emit the JSON exchange document for -model")
		jsonDump = flag.Bool("json", false, "emit the characterization table as JSON (machine-readable)")
	)
	flag.Parse()
	if err := checkFlags(*model, *dot, *export); err != nil {
		fmt.Fprintln(os.Stderr, "adzoo:", err)
		os.Exit(2)
	}

	if *model != "" {
		g, err := af.LoadModel(*model)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adzoo:", err)
			os.Exit(1)
		}
		if *export {
			if err := af.WriteModel(os.Stdout, g); err != nil {
				fmt.Fprintln(os.Stderr, "adzoo:", err)
				os.Exit(1)
			}
			return
		}
		if *dot {
			fmt.Print(g.DOT())
			return
		}
		fmt.Println(g.Summary())
		for _, l := range g.Layers {
			s := l.Shape
			fmt.Printf("  %4d %-16s %-8s in %3dx%3dx%4d out %3dx%3dx%4d k%dx%d s%d depth %d\n",
				l.ID, l.Name, l.Kind, s.Hi, s.Wi, s.Ci, s.Ho, s.Wo, s.Co, s.Kh, s.Kw, s.Stride, l.Depth)
		}
		return
	}

	if *jsonDump {
		type row struct {
			Model   string `json:"model"`
			Layers  int    `json:"layers"`
			Compute int    `json:"compute_layers"`
			Params  int64  `json:"params"`
			MACs    int64  `json:"macs"`
			Depth   int    `json:"depth"`
		}
		var rows []row
		for _, name := range models.Names() {
			g := models.MustBuild(name)
			rows = append(rows, row{
				Model: name, Layers: g.NumLayers(), Compute: len(g.ComputeLayers()),
				Params: g.TotalParams(), MACs: g.TotalMACs(), Depth: g.MaxDepth(),
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			fmt.Fprintln(os.Stderr, "adzoo:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%-14s %7s %8s %9s %8s %6s\n", "model", "layers", "compute", "params", "GMACs", "depth")
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		fmt.Printf("%-14s %7d %8d %8.1fM %8.1f %6d\n",
			name, g.NumLayers(), len(g.ComputeLayers()),
			float64(g.TotalParams())/1e6, float64(g.TotalMACs())/1e9, g.MaxDepth())
	}
}

// checkFlags rejects the per-model output flags without a model, which
// would otherwise be ignored in favour of the summary table.
func checkFlags(model string, dot, export bool) error {
	if model != "" {
		return nil
	}
	if dot {
		return fmt.Errorf("-dot needs -model")
	}
	if export {
		return fmt.Errorf("-export needs -model")
	}
	return nil
}
