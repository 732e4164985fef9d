package codegen

import (
	"strings"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

func program(t *testing.T, model string, batch int, mesh *noc.Mesh) (*Program, *atom.DAG) {
	t.Helper()
	g := models.MustBuild(model)
	cfg := engine.Default()
	res := anneal.SA(g, cfg, engine.KCPartition, anneal.Options{MaxIters: 80})
	d, err := atom.Build(g, batch, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: mesh.Engines(), Mode: schedule.Greedy,
		EngineCfg: cfg, Dataflow: engine.KCPartition,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Generate(d, s, mesh, int64(cfg.BufferBytes))
	if err != nil {
		t.Fatal(err)
	}
	return p, d
}

func TestGenerateAndVerify(t *testing.T) {
	for _, model := range []string{"tinyconv", "tinyresnet", "tinybranch", "pnascell"} {
		mesh := noc.NewMesh(2, 2, 32)
		p, d := program(t, model, 2, mesh)
		if err := p.Verify(d); err != nil {
			t.Errorf("%s: %v", model, err)
		}
		if len(p.Streams) != 4 {
			t.Errorf("%s: %d streams", model, len(p.Streams))
		}
	}
}

func TestStreamsCoverAllAtoms(t *testing.T) {
	mesh := noc.NewMesh(2, 2, 32)
	p, d := program(t, "tinybranch", 3, mesh)
	seen := make(map[int]bool)
	for _, stream := range p.Streams {
		for _, in := range stream {
			if in.Op == OpCompute {
				seen[in.Atom] = true
			}
		}
	}
	for id, a := range d.Atoms {
		deps, _, _ := d.Deps(id)
		virtual := len(deps) == 0 && !a.Task.Kind.IsCompute() && a.Layer == 0
		if virtual {
			continue
		}
		if !seen[id] && a.Task.Kind.String() != "Input" {
			t.Errorf("atom %d never computed", id)
		}
	}
}

func TestSendRecvBalance(t *testing.T) {
	mesh := noc.NewMesh(2, 2, 32)
	p, _ := program(t, "tinyresnet", 2, mesh)
	var sends, recvs int
	var sentBytes, recvBytes int64
	for _, stream := range p.Streams {
		for _, in := range stream {
			switch in.Op {
			case OpSend:
				sends++
				sentBytes += in.Bytes
			case OpRecv:
				recvs++
				recvBytes += in.Bytes
			}
		}
	}
	if sends != recvs || sentBytes != recvBytes {
		t.Errorf("SEND/RECV imbalance: %d/%d ops, %d/%d bytes", sends, recvs, sentBytes, recvBytes)
	}
}

func TestDumpListing(t *testing.T) {
	mesh := noc.NewMesh(2, 2, 32)
	p, _ := program(t, "tinyconv", 1, mesh)
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
	mesh := noc.NewMesh(2, 2, 32)
	p, d := program(t, "tinyresnet", 2, mesh)
	st := p.Stats()
	if st.Computes != p.Atoms {
		t.Errorf("Computes = %d, want %d", st.Computes, p.Atoms)
	}
	if st.Instructions <= st.Computes {
		t.Error("instruction stream suspiciously small")
	}
	if st.LoadBytes <= 0 || st.StoreBytes <= 0 {
		t.Error("no load/store traffic recorded")
	}
	_ = d
}

func TestOpString(t *testing.T) {
	for op := OpLoadW; op <= OpSync; op++ {
		if strings.HasPrefix(op.String(), "Op(") {
			t.Errorf("missing mnemonic for op %d", int(op))
		}
	}
}
