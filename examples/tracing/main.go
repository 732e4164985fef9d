// Tracing: export the full-span trace of an atomic-dataflow execution
// (engine, NoC and DRAM lanes) for the Perfetto UI. The trace makes the
// scheduler's behaviour visible — which layers share Rounds, how full
// each Round is, where NoC and DRAM stalls stretch the barriers.
package main

import (
	"fmt"
	"log"
	"os"

	af "github.com/atomic-dataflow/atomicflow"
)

func main() {
	g, err := af.LoadModel("tinybranch")
	if err != nil {
		log.Fatal(err)
	}
	hw := af.DefaultHardware()
	hw.Mesh = af.NewMesh(2, 2, hw.Mesh.LinkBytes)

	f, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	sol, err := af.Orchestrate(g, af.Options{
		Batch: 2, Hardware: &hw, Mode: af.ModeDP, TraceWriter: f,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d atoms over %d rounds, %.4f ms\n",
		g.Summary(), sol.Atoms, sol.Rounds, sol.Report.TimeMS)
	fmt.Println("wrote trace.json — open https://ui.perfetto.dev or chrome://tracing")
	fmt.Println("\nin the engines process each lane is one engine, and block names are")
	fmt.Println("the layers whose atoms ran; 'dram-block' and 'noc-block' spans in the")
	fmt.Println("dram and noc processes mark cycles where a Round outlived its compute.")
}
