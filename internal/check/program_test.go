package check_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/check"
	"github.com/atomic-dataflow/atomicflow/internal/codegen"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// hardware is the default system on a w x h mesh with bufferBytes per
// engine.
func hardware(w, h, bufferBytes int) sim.Config {
	hw := sim.DefaultConfig()
	hw.Mesh = noc.NewMesh(w, h, hw.Mesh.LinkBytes)
	hw.Engine.BufferBytes = bufferBytes
	return hw
}

// solve builds model's atoms at batch from a short search priced on hw's
// engine and schedules them greedily on hw's engines.
func solve(t testing.TB, model string, batch int, hw sim.Config) (*atom.DAG, *schedule.Schedule) {
	t.Helper()
	g := models.MustBuild(model)
	res := anneal.SA(g, hw.Engine, hw.Dataflow, anneal.Options{MaxIters: 60})
	d, err := atom.Build(g, batch, res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(d, schedule.Options{
		Engines: hw.Mesh.Engines(), Mode: schedule.Greedy,
		EngineCfg: hw.Engine, Dataflow: hw.Dataflow,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

// lower simulates and lowers the schedule on hw, and returns the program,
// the Totals check.Program compares it with and the buffer replay's
// high-water mark.
func lower(t testing.TB, d *atom.DAG, s *schedule.Schedule, hw sim.Config) (*codegen.Program, check.Totals, int64) {
	t.Helper()
	hw.Metrics = obs.New()
	rep, err := sim.Run(d, s, hw)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.Generate(d, s, hw)
	if err != nil {
		t.Fatal(err)
	}
	tot := check.Totals{
		Rounds:         rep.Rounds,
		DRAMReadBytes:  rep.DRAMReadBytes,
		DRAMWriteBytes: rep.DRAMWriteBytes,
		NoCByteHops:    rep.NoCByteHops,
		Engines:        hw.Mesh.Engines(),
		Engine:         hw.Engine,
		MeshW:          hw.Mesh.W,
		MeshH:          hw.Mesh.H,
	}
	return p, tot, int64(hw.Metrics.Snapshot().Gauge("buffer_occupancy_highwater_bytes"))
}

// TestProgramStarvedBuffers lowers tiny workloads on buffers from
// Fig 10's 1-byte no-reuse setting, where every tensor spills, to 16 KiB,
// where Algorithm 3 evicts and writes back; every program must pass, and
// between them they must evict and reload a written-back output.
func TestProgramStarvedBuffers(t *testing.T) {
	var evicts, reloads int
	for _, buf := range []int{1, 4 << 10, 16 << 10} {
		for _, model := range []string{"tinyresnet", "tinybranch"} {
			for _, batch := range []int{2, 3} {
				hw := hardware(8, 8, buf)
				d, s := solve(t, model, batch, hw)
				p, tot, _ := lower(t, d, s, hw)
				if err := check.Program(d, p.Streams, tot); err != nil {
					t.Errorf("%s b%d buffer %d: %v", model, batch, buf, err)
				}
				written := map[check.Tensor]bool{}
				for _, stream := range p.Streams {
					for _, in := range stream {
						switch in.Op {
						case check.OpEvict:
							evicts++
						case check.OpWriteback:
							written[in.Tensor] = true
						}
					}
				}
				for _, stream := range p.Streams {
					for _, in := range stream {
						if in.Op == check.OpLoadIn && written[in.Tensor] {
							reloads++
						}
					}
				}
			}
		}
	}
	if evicts == 0 || reloads == 0 {
		t.Errorf("%d EVICTs and %d reloads of written-back outputs: the buffers starve nothing", evicts, reloads)
	}
}

// TestProgramOffMesh lowers onto a torus and an H-tree, whose routes are
// not XY: with no mesh shape in the Totals, Program checks everything but
// the NoC byte-hops.
func TestProgramOffMesh(t *testing.T) {
	for _, mesh := range []*noc.Mesh{noc.NewTorus(4, 4, 32), noc.NewHTree(16, 32)} {
		hw := sim.DefaultConfig()
		hw.Mesh = mesh
		d, s := solve(t, "tinybranch", 2, hw)
		p, tot, _ := lower(t, d, s, hw)
		tot.MeshW, tot.MeshH = 0, 0
		if err := check.Program(d, p.Streams, tot); err != nil {
			t.Errorf("%v: %v", mesh.Kind(), err)
		}
	}
}

// TestProgramBufferProperty replays random buffer capacities, from 512 B
// to 4 MB, on three small workloads: every lowered program must keep each
// buffer within capacity, move every dependency edge's bytes once, write
// each output back at most once and move the Report's DRAM bytes and NoC
// byte-hops, as check.Program checks.
func TestProgramBufferProperty(t *testing.T) {
	for _, c := range []struct {
		model      string
		batch      int
		meshW      int
		minBuf     int
		bufPerStep int
	}{
		{"tinyresnet", 2, 2, 512, 64},
		{"tinybranch", 2, 2, 1024, 128},
		{"tinyconv", 3, 1, 512, 32},
	} {
		hw := hardware(c.meshW, 2, 128<<10)
		d, s := solve(t, c.model, c.batch, hw)
		f := func(capRaw uint16) bool {
			hw.Engine.BufferBytes = int(capRaw)*c.bufPerStep + c.minBuf
			p, tot, _ := lower(t, d, s, hw)
			if err := check.Program(d, p.Streams, tot); err != nil {
				t.Logf("%s buffer %d: %v", c.model, hw.Engine.BufferBytes, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", c.model, err)
		}
	}
}

// program is a mutable copy of a lowered program and its Totals.
type program struct {
	streams [][]check.Instr
	tot     check.Totals
}

// find returns the first instruction, in engine then stream order, that
// ok accepts.
func (p *program) find(t *testing.T, what string, ok func(e, i int) bool) (int, int) {
	t.Helper()
	for e, s := range p.streams {
		for i := range s {
			if ok(e, i) {
				return e, i
			}
		}
	}
	t.Fatalf("the program has no %s", what)
	return 0, 0
}

func (p *program) drop(e, i int) { p.streams[e] = slices.Delete(p.streams[e], i, i+1) }

func (p *program) insert(e, i int, in check.Instr) {
	p.streams[e] = slices.Insert(p.streams[e], i, in)
}

// op returns a predicate accepting instructions of op.
func (p *program) op(op check.Op) func(e, i int) bool {
	return func(e, i int) bool { return p.streams[e][i].Op == op }
}

// TestProgramMutations breaks a checked program one way at a time. Each
// break must fail check.Program, and the named ones must name the
// invariant they break.
func TestProgramMutations(t *testing.T) {
	hw := hardware(2, 2, 4<<10)
	d, s := solve(t, "tinyresnet", 2, hw)
	base, tot, highWater := lower(t, d, s, hw)
	if err := check.Program(d, base.Streams, tot); err != nil {
		t.Fatalf("unbroken program: %v", err)
	}
	for _, c := range []struct {
		name  string
		want  string // "" accepts any error
		apply func(t *testing.T, p *program)
	}{
		{"drop an EVICT", "over the buffer capacity", func(t *testing.T, p *program) {
			// The last EVICT before a STORE that overflows without it.
			used := make([]int64, len(p.streams))
			e, i := p.find(t, "EVICT forced by a STORE", func(e, i int) bool {
				s := p.streams[e]
				switch s[i].Op {
				case check.OpStore:
					used[e] += s[i].Bytes
				case check.OpEvict:
					if i+1 < len(s) && s[i+1].Op == check.OpStore && used[e]+s[i+1].Bytes > int64(p.tot.Engine.BufferBytes) {
						return true
					}
					used[e] -= s[i].Bytes
				}
				return false
			})
			p.drop(e, i)
		}},
		{"count one group twice", "NoC byte-hops", func(t *testing.T, p *program) {
			// A group of one SEND carries its bytes over the XY route's
			// Manhattan length.
			type key struct {
				round, src int32
				t          check.Tensor
			}
			sends := map[key]int{}
			for e, s := range p.streams {
				for _, in := range s {
					if in.Op == check.OpSend {
						sends[key{in.Round, int32(e), in.Tensor}]++
					}
				}
			}
			e, i := p.find(t, "single-destination group", func(e, i int) bool {
				in := p.streams[e][i]
				return in.Op == check.OpSend && sends[key{in.Round, int32(e), in.Tensor}] == 1
			})
			in, w := p.streams[e][i], p.tot.MeshW
			hops := abs(e%w-int(in.Peer)%w) + abs(e/w-int(in.Peer)/w)
			p.tot.NoCByteHops += in.Bytes * int64(hops)
		}},
		{"LOAD_IN a resident tensor", "already resident", func(t *testing.T, p *program) {
			e, i := p.find(t, "STORE inside a Round", func(e, i int) bool {
				s := p.streams[e]
				return s[i].Op == check.OpStore && s[i+1].Round == s[i].Round
			})
			in := p.streams[e][i]
			in.Op = check.OpLoadIn
			p.insert(e, i+1, in)
		}},
		{"drop the WRITEBK a later load needs", "which DRAM does not hold", func(t *testing.T, p *program) {
			loaded := map[check.Tensor]bool{}
			for _, s := range p.streams {
				for _, in := range s {
					if in.Op == check.OpLoadIn && !in.Tensor.Weight && d.Atoms[in.Tensor.ID].Task.Kind != graph.OpInput {
						loaded[in.Tensor] = true
					}
				}
			}
			p.drop(p.find(t, "WRITEBK of a reloaded output", func(e, i int) bool {
				in := p.streams[e][i]
				return in.Op == check.OpWriteback && loaded[in.Tensor]
			}))
		}},
		{"drop a result's WRITEBK", "never written back", func(t *testing.T, p *program) {
			read := map[check.Tensor]bool{}
			for id := range d.Atoms {
				deps, _, off := d.Deps(id)
				for _, dep := range deps {
					read[check.Tensor{ID: dep + off}] = true
				}
			}
			p.drop(p.find(t, "WRITEBK of an output no atom reads", func(e, i int) bool {
				in := p.streams[e][i]
				return in.Op == check.OpWriteback && !read[in.Tensor]
			}))
		}},
		{"write one output back twice", "written back twice", func(t *testing.T, p *program) {
			e, i := p.find(t, "WRITEBK", p.op(check.OpWriteback))
			p.insert(e, i+1, p.streams[e][i])
		}},
		{"BufferBytes one below the high-water mark", "over the buffer capacity", func(t *testing.T, p *program) {
			p.tot.Engine.BufferBytes = int(highWater) - 1
		}},
		{"COMPUTE ahead of its input's RECV", "is not on the engine", func(t *testing.T, p *program) {
			e, i := p.find(t, "COMPUTE after a RECV", func(e, i int) bool {
				s := p.streams[e]
				return s[i].Op == check.OpRecv && slices.ContainsFunc(s[i+1:], func(in check.Instr) bool {
					return in.Op == check.OpCompute && in.Round == s[i].Round
				})
			})
			j := i + slices.IndexFunc(p.streams[e][i:], func(in check.Instr) bool { return in.Op == check.OpCompute })
			in := p.streams[e][j]
			p.drop(e, j)
			p.insert(e, i, in)
		}},
		{"RECV dropped", "", func(t *testing.T, p *program) { p.drop(p.find(t, "RECV", p.op(check.OpRecv))) }},
		{"SEND bytes", "unmatched", func(t *testing.T, p *program) {
			e, i := p.find(t, "SEND", p.op(check.OpSend))
			p.streams[e][i].Bytes++
		}},
		{"COMPUTE dropped", "", func(t *testing.T, p *program) { p.drop(p.find(t, "COMPUTE", p.op(check.OpCompute))) }},
		{"SYNC dropped", "belongs to round", func(t *testing.T, p *program) { p.drop(p.find(t, "SYNC", p.op(check.OpSync))) }},
		{"COMPUTE past the last Round", "after the last SYNC", func(t *testing.T, p *program) {
			e, i := p.find(t, "COMPUTE", p.op(check.OpCompute))
			in := p.streams[e][i]
			in.Round = int32(p.tot.Rounds)
			p.streams[e] = append(p.streams[e], in)
		}},
		{"round regressed", "after the last SYNC", func(t *testing.T, p *program) {
			p.streams[0] = append(p.streams[0], check.Instr{Op: check.OpSync})
		}},
	} {
		p := &program{streams: make([][]check.Instr, len(base.Streams)), tot: tot}
		for e, s := range base.Streams {
			p.streams[e] = slices.Clone(s)
		}
		c.apply(t, p)
		err := check.Program(d, p.streams, p.tot)
		switch {
		case err == nil:
			t.Errorf("%s: accepted", c.name)
		case !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		default:
			t.Logf("%s: %v", c.name, err)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestOpString checks that every opcode has a mnemonic.
func TestOpString(t *testing.T) {
	for op := check.OpLoadIn; op <= check.OpSync; op++ {
		if strings.HasPrefix(op.String(), "Op(") {
			t.Errorf("missing mnemonic for op %d", int(op))
		}
	}
	if got := fmt.Sprint(check.Instr{Op: check.OpRecv, Tensor: check.Tensor{ID: 3, Weight: true}, Peer: 2, Bytes: 64}); got != "RECV     w3 src=E2 bytes=64" {
		t.Errorf("listing %q", got)
	}
}
