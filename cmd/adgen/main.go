// Command adgen lowers an atomic-dataflow solution to per-engine
// instruction streams — the compile-time configurations the paper's
// engine controllers execute (Sec. II-A) — and prints one engine's
// listing plus aggregate statistics.
//
// Usage:
//
//	adgen -model resnet50 -engines 4 -engine-id 0 | head -50
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/codegen"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

func main() {
	var (
		model    = flag.String("model", "tinyresnet", "workload name from the zoo")
		batch    = flag.Int("batch", 1, "batch size")
		engines  = flag.Int("engines", 4, "engine mesh side (engines x engines)")
		engineID = flag.Int("engine-id", 0, "engine whose stream to print (-1: stats only)")
		saIters  = flag.Int("sa-iters", 300, "SA iterations")
		metJSON  = flag.String("metrics-json", "", "write the SA search metrics as JSON to this file")
	)
	flag.Parse()
	if err := checkFlags(*engines, *batch); err != nil {
		fmt.Fprintln(os.Stderr, "adgen:", err)
		os.Exit(2)
	}

	g, err := models.Build(*model)
	if err != nil {
		fatal(err)
	}
	hw := sim.DefaultConfig()
	hw.Mesh = noc.NewMesh(*engines, *engines, hw.Mesh.LinkBytes)

	var reg *obs.Registry
	if *metJSON != "" {
		reg = obs.New()
	}
	res := anneal.SA(g, hw.Engine, hw.Dataflow, anneal.Options{MaxIters: *saIters, Metrics: reg})
	if *metJSON != "" {
		f, err := os.Create(*metJSON)
		if err != nil {
			fatal(err)
		}
		if err := reg.WriteJSON(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	d, err := atom.Build(g, *batch, res.Spec)
	if err != nil {
		fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: hw.Mesh.Engines(), Mode: schedule.Greedy,
		EngineCfg: hw.Engine, Dataflow: hw.Dataflow,
	})
	if err != nil {
		fatal(err)
	}
	p, err := codegen.Generate(d, s, hw.Mesh, hw.UsableBufferBytes())
	if err != nil {
		fatal(err)
	}
	if err := p.Verify(d); err != nil {
		fatal(fmt.Errorf("stream verification: %w", err))
	}

	st := p.Stats()
	fmt.Printf("; %s batch=%d on %dx%d engines: %d instructions, %d computes, "+
		"%d sends/%d recvs, %0.1f MB loaded, %0.1f MB stored, %d rounds\n",
		*model, *batch, *engines, *engines,
		st.Instructions, st.Computes, st.Sends, st.Recvs,
		float64(st.LoadBytes)/1e6, float64(st.StoreBytes)/1e6, p.Rounds)
	if *engineID >= 0 {
		if err := p.Dump(os.Stdout, *engineID); err != nil {
			fatal(err)
		}
	}
}

// checkFlags rejects flag values the pipeline would panic on (a mesh
// without engines) or only fail on after the whole search (a batch
// below 1).
func checkFlags(engines, batch int) error {
	if engines < 1 {
		return fmt.Errorf("-engines %d: want at least 1", engines)
	}
	if batch < 1 {
		return fmt.Errorf("-batch %d: want at least 1", batch)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adgen:", err)
	os.Exit(1)
}
