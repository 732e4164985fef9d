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
	"github.com/atomic-dataflow/atomicflow/internal/sim"
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
	hw := sim.DefaultConfig()
	hw.Mesh = mesh
	p, err := Generate(d, s, hw)
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

func TestOpString(t *testing.T) {
	for op := OpLoadIn; op <= OpSync; op++ {
		if strings.HasPrefix(op.String(), "Op(") {
			t.Errorf("missing mnemonic for op %d", int(op))
		}
	}
}

// TestVerifyRejects breaks a verified program one way at a time: each
// break must fail Verify.
func TestVerifyRejects(t *testing.T) {
	mesh := noc.NewMesh(2, 2, 32)
	find := func(p *Program, op Op) (e, i int) {
		for e, stream := range p.Streams {
			for i, in := range stream {
				if in.Op == op {
					return e, i
				}
			}
		}
		t.Fatalf("no %v in the program", op)
		return 0, 0
	}
	drop := func(p *Program, op Op) {
		e, i := find(p, op)
		p.Streams[e] = append(p.Streams[e][:i:i], p.Streams[e][i+1:]...)
	}
	for name, breakIt := range map[string]func(*Program){
		"RECV dropped":    func(p *Program) { drop(p, OpRecv) },
		"SEND bytes":      func(p *Program) { e, i := find(p, OpSend); p.Streams[e][i].Bytes++ },
		"COMPUTE dropped": func(p *Program) { drop(p, OpCompute) },
		"SYNC dropped":    func(p *Program) { drop(p, OpSync) },
		"COMPUTE twice": func(p *Program) {
			e, i := find(p, OpCompute)
			p.Streams[e] = append(p.Streams[e], p.Streams[e][i])
			p.Streams[e][len(p.Streams[e])-1].Round = p.Rounds
		},
		"round regressed": func(p *Program) {
			e, _ := find(p, OpSync)
			p.Streams[e] = append(p.Streams[e], Instr{Op: OpSync, Round: 0})
		},
	} {
		p, d := program(t, "tinyresnet", 1, mesh)
		if err := p.Verify(d); err != nil {
			t.Fatalf("%s: unbroken program fails: %v", name, err)
		}
		breakIt(p)
		if err := p.Verify(d); err == nil {
			t.Errorf("%s: Verify accepts the broken program", name)
		}
	}
}
