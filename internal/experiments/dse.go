package experiments

import (
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/par"
)

// Fig12Point is one (workload, engine-count, batch) sample of the
// architectural design-space exploration.
type Fig12Point struct {
	Workload string
	Grid     int // engines per mesh side (grid x grid engines)
	Engines  int
	PEsPer   int // PE-array side per engine
	BufferKB int
	Batch    int
	TimeMS   float64
}

// Fig12Grids lists the engine-grid sides swept by Fig. 12: the total PE
// count (16384) and total buffer (8 MB) stay fixed while the chip is cut
// into 1x1 ... 16x16 engines.
var Fig12Grids = []int{1, 2, 4, 8, 16}

// Fig12 reproduces the engine-count sweep. Paper: all curves are
// U-shaped; the sweet spot falls around 4x4-8x8 engines, and doubling the
// batch does not change the trend.
func Fig12(cfg Config) ([]Fig12Point, error) {
	base := cfg.hw()
	cfg.printf("Fig 12 — scaling engine count at fixed 16384 PEs / 8 MB buffer\n")
	totalPEside := base.Engine.PEx * 8 // 16x16 per engine on the 8x8 default = 128
	totalBuffer := int64(base.Engine.BufferBytes) * 64
	batches := []int{cfg.batch(1), cfg.batch(1) * 2}
	// Enumerate the sweep up front, solve every point on the worker pool
	// (each point is an independent search + simulation), then print in
	// input order.
	var points []Fig12Point
	var bufBytes []int // exact per-point buffer size (BufferKB is display-rounded)
	for _, batch := range batches {
		for _, name := range cfg.workloads(models.PaperWorkloads) {
			for _, grid := range Fig12Grids {
				peSide := totalPEside / grid
				bb := int(totalBuffer / int64(grid*grid))
				points = append(points, Fig12Point{
					Workload: name, Grid: grid, Engines: grid * grid,
					PEsPer: peSide, BufferKB: bb >> 10, Batch: batch,
				})
				bufBytes = append(bufBytes, bb)
			}
		}
	}
	errs := make([]error, len(points))
	par.ForEach(len(points), func(i int) {
		p := &points[i]
		g := mustModel(p.Workload)
		hw := base
		hw.Mesh = noc.NewMesh(p.Grid, p.Grid, base.Mesh.LinkBytes)
		hw.Engine.PEx, hw.Engine.PEy = p.PEsPer, p.PEsPer
		hw.Engine.BufferBytes = bufBytes[i]
		rep, err := cfg.runAD(g, p.Batch, hw)
		if err != nil {
			errs[i] = err
			return
		}
		p.TimeMS = rep.TimeMS
	})
	for i, p := range points {
		if errs[i] != nil {
			return nil, errs[i]
		}
		cfg.printf("  %-14s b%-2d %2dx%-2d engines (%3dx%-3d PEs, %4d KB): %9.3f ms\n",
			p.Workload, p.Batch, p.Grid, p.Grid, p.PEsPer, p.PEsPer, p.BufferKB, p.TimeMS)
	}
	return points, nil
}

// Fig13Point is one (workload, buffer size) sample.
type Fig13Point struct {
	Workload string
	BufferKB int
	TimeMS   float64
}

// Fig13Buffers lists the per-engine buffer capacities swept by Fig. 13.
var Fig13Buffers = []int{32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}

// Fig13 reproduces the buffer-size sweep on the 8x8-engine chip. Paper:
// performance improves with buffer size but the gains flatten beyond
// 128 KB per engine.
func Fig13(cfg Config) ([]Fig13Point, error) {
	base := cfg.hw()
	cfg.printf("Fig 13 — scaling per-engine buffer size\n")
	// Independent (workload, buffer) points: solve on the worker pool,
	// print in input order.
	var points []Fig13Point
	var bufBytes []int
	for _, name := range cfg.workloads(models.PaperWorkloads) {
		for _, buf := range Fig13Buffers {
			points = append(points, Fig13Point{Workload: name, BufferKB: buf >> 10})
			bufBytes = append(bufBytes, buf)
		}
	}
	errs := make([]error, len(points))
	par.ForEach(len(points), func(i int) {
		p := &points[i]
		g := mustModel(p.Workload)
		hw := base
		hw.Engine.BufferBytes = bufBytes[i]
		rep, err := cfg.runAD(g, cfg.batch(1), hw)
		if err != nil {
			errs[i] = err
			return
		}
		p.TimeMS = rep.TimeMS
	})
	for i, p := range points {
		if errs[i] != nil {
			return nil, errs[i]
		}
		cfg.printf("  %-14s %4d KB: %9.3f ms\n", p.Workload, p.BufferKB, p.TimeMS)
	}
	return points, nil
}
