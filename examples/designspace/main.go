// Design-space exploration: the paper's Sec. V-C uses the framework to
// pick accelerator design points. This example fixes the total compute
// (4096 PEs) and total buffer (2 MB) and sweeps how the chip is cut into
// engines, reproducing the U-shaped curves of Fig. 12 at a smaller scale,
// then sweeps the per-engine buffer like Fig. 13.
package main

import (
	"fmt"
	"log"

	af "github.com/atomic-dataflow/atomicflow"
)

func main() {
	g, err := af.LoadModel("inceptionv3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(g.Summary())

	const totalPEside = 64 // 4096 PEs
	const totalBuffer = 2 << 20

	fmt.Println("\nengine-count sweep (fixed 4096 PEs, 2 MB buffer):")
	bestGrid, bestMS := 0, 0.0
	for _, grid := range []int{1, 2, 4, 8} {
		hw := af.DefaultHardware()
		hw.Mesh = af.NewMesh(grid, grid, hw.Mesh.LinkBytes)
		hw.Engine.PEx = totalPEside / grid
		hw.Engine.PEy = totalPEside / grid
		hw.Engine.BufferBytes = totalBuffer / (grid * grid)
		sol, err := af.Orchestrate(g, af.Options{Batch: 1, Hardware: &hw})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %dx%d engines of %3dx%-3d PEs, %4d KB: %8.3f ms\n",
			grid, grid, hw.Engine.PEx, hw.Engine.PEy, hw.Engine.BufferBytes>>10,
			sol.Report.TimeMS)
		if bestGrid == 0 || sol.Report.TimeMS < bestMS {
			bestGrid, bestMS = grid, sol.Report.TimeMS
		}
	}
	fmt.Printf("sweet spot: %dx%d engines (%.3f ms) — neither monolithic nor maximally sliced\n",
		bestGrid, bestGrid, bestMS)

	fmt.Println("\nper-engine buffer sweep (4x4 engines):")
	for _, kb := range []int{32, 64, 128, 256} {
		hw := af.DefaultHardware()
		hw.Mesh = af.NewMesh(4, 4, hw.Mesh.LinkBytes)
		hw.Engine.PEx, hw.Engine.PEy = 16, 16
		hw.Engine.BufferBytes = kb << 10
		sol, err := af.Orchestrate(g, af.Options{Batch: 1, Hardware: &hw})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %4d KB: %8.3f ms (reuse %.1f%%)\n",
			kb, sol.Report.TimeMS, 100*sol.Report.OnChipReuseRatio)
	}
}
