package codegen

import (
	"strings"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/check"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// program lowers model at batch on a 2x2 mesh and checks the program
// against the simulated Report with check.Program.
func program(t *testing.T, model string, batch int) (*Program, *atom.DAG) {
	t.Helper()
	g := models.MustBuild(model)
	cfg := engine.Default()
	res := anneal.SA(g, cfg, engine.KCPartition, anneal.Options{MaxIters: 80})
	d, err := atom.Build(g, batch, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	hw := sim.DefaultConfig()
	hw.Mesh = noc.NewMesh(2, 2, 32)
	s, err := schedule.Build(d, schedule.Options{
		Engines: hw.Mesh.Engines(), Mode: schedule.Greedy,
		EngineCfg: cfg, Dataflow: engine.KCPartition,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(d, s, hw)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Generate(d, s, hw)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Program(d, p.Streams, check.Totals{
		Rounds: rep.Rounds, DRAMReadBytes: rep.DRAMReadBytes, DRAMWriteBytes: rep.DRAMWriteBytes,
		NoCByteHops: rep.NoCByteHops, Engines: hw.Mesh.Engines(), Engine: hw.Engine,
		MeshW: hw.Mesh.W, MeshH: hw.Mesh.H,
	}); err != nil {
		t.Fatalf("%s b%d: %v", model, batch, err)
	}
	return p, d
}

func TestGenerateChecks(t *testing.T) {
	for _, model := range []string{"tinyconv", "tinyresnet", "tinybranch", "pnascell"} {
		if p, _ := program(t, model, 2); len(p.Streams) != 4 {
			t.Errorf("%s: %d streams", model, len(p.Streams))
		}
	}
}

func TestStreamsCoverAllAtoms(t *testing.T) {
	p, d := program(t, "tinybranch", 3)
	seen := make(map[int]bool)
	for _, stream := range p.Streams {
		for _, in := range stream {
			if in.Op == check.OpCompute {
				seen[int(in.Tensor.ID)] = true
			}
		}
	}
	for id, a := range d.Atoms {
		if !seen[id] && a.Task.Kind.String() != "Input" {
			t.Errorf("atom %d never computed", id)
		}
	}
}

func TestSendRecvBalance(t *testing.T) {
	p, _ := program(t, "tinyresnet", 2)
	var sends, recvs int
	var sentBytes, recvBytes int64
	for _, stream := range p.Streams {
		for _, in := range stream {
			switch in.Op {
			case check.OpSend:
				sends++
				sentBytes += in.Bytes
			case check.OpRecv:
				recvs++
				recvBytes += in.Bytes
			}
		}
	}
	if sends == 0 || sends != recvs || sentBytes != recvBytes {
		t.Errorf("SEND/RECV imbalance: %d/%d ops, %d/%d bytes", sends, recvs, sentBytes, recvBytes)
	}
}

func TestDumpListing(t *testing.T) {
	p, _ := program(t, "tinyconv", 1)
	var sb strings.Builder
	if err := p.Dump(&sb, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"engine 0", ".round 0", "SYNC"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q", want)
		}
	}
	if err := p.Dump(&sb, 99); err == nil {
		t.Error("out-of-range engine accepted")
	}
}

func TestStats(t *testing.T) {
	p, d := program(t, "tinyresnet", 2)
	st, scheduled := p.Stats(), 0
	for _, a := range d.Atoms {
		if a.Task.Kind.String() != "Input" {
			scheduled++
		}
	}
	if st.Computes != scheduled {
		t.Errorf("Computes = %d, want %d", st.Computes, scheduled)
	}
	if st.Instructions <= st.Computes {
		t.Error("instruction stream suspiciously small")
	}
	if st.LoadBytes <= 0 || st.WritebackBytes <= 0 {
		t.Error("no DRAM load/write-back traffic recorded")
	}
}
