// Package codegen lowers an orchestrated solution (atomic DAG + Round
// schedule + placement + buffering decisions) into per-engine command
// streams — the compile-time "instructions (or configurations) loaded
// before execution" of the paper's engine controller (Sec. II-A).
//
// The instruction set is deliberately small and matches what the
// simulator models:
//
//	LOAD_W   dst=self            fetch a weight slice from DRAM
//	LOAD_IN  dst=self            fetch an input region from DRAM
//	RECV     src=engine          receive a tensor region over the NoC
//	SEND     dst=engine          forward a resident tensor region
//	COMPUTE  atom                run one atom on the PE array/vector unit
//	STORE    —                   keep the produced tile in the local buffer
//	WRITEBK  —                   write a tile back to DRAM (eviction/final)
//	SYNC     round               barrier at the end of each Round
//
// Streams are verified for global consistency (every RECV pairs with a
// SEND in the same Round, COMPUTE appears exactly once per atom, SYNC
// indices agree across engines), which doubles as an end-to-end check of
// the scheduler/mapper/buffer pipeline.
package codegen

import (
	"fmt"
	"io"
	"math/bits"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/buffer"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/mapping"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
)

// Op is an engine-controller opcode.
type Op int

const (
	OpLoadW Op = iota
	OpLoadIn
	OpRecv
	OpSend
	OpCompute
	OpStore
	OpWriteback
	OpSync
)

var opNames = [...]string{"LOAD_W", "LOAD_IN", "RECV", "SEND", "COMPUTE", "STORE", "WRITEBK", "SYNC"}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Instr is one engine-controller instruction.
type Instr struct {
	Op    Op
	Atom  int   // COMPUTE/STORE/WRITEBK: atom whose tile is involved
	Peer  int   // RECV: source engine; SEND: destination engine
	Bytes int64 // tensor bytes moved (0 for COMPUTE/SYNC)
	Round int   // owning Round (SYNC: the Round being closed)
}

// String renders the instruction in listing form.
func (i Instr) String() string {
	switch i.Op {
	case OpCompute:
		return fmt.Sprintf("%-8s atom=%d", i.Op, i.Atom)
	case OpRecv:
		return fmt.Sprintf("%-8s src=E%d bytes=%d", i.Op, i.Peer, i.Bytes)
	case OpSend:
		return fmt.Sprintf("%-8s dst=E%d bytes=%d", i.Op, i.Peer, i.Bytes)
	case OpSync:
		return fmt.Sprintf("%-8s round=%d", i.Op, i.Round)
	default:
		return fmt.Sprintf("%-8s atom=%d bytes=%d", i.Op, i.Atom, i.Bytes)
	}
}

// Program is the lowered solution: one instruction stream per engine.
type Program struct {
	Streams [][]Instr // engine -> instructions
	Rounds  int
	Atoms   int
}

// Generate replays the schedule through the mapper and buffer manager and
// emits per-engine streams.
func Generate(d *atom.DAG, s *schedule.Schedule, mesh *noc.Mesh, bufferBytes int64) (*Program, error) {
	n := mesh.Engines()
	man, err := buffer.New(d, s, n, bufferBytes)
	if err != nil {
		return nil, err
	}
	mapper := mapping.New(mesh, d)
	p := &Program{Streams: make([][]Instr, n), Rounds: s.NumRounds()}

	var placed mapping.Result
	for t, round := range s.Rounds {
		mapper.PlaceRound(&placed, round.Atoms, man.Locate, man.HasWeights)

		// Emit receives/sends from the Round's IO.
		io, err := man.ExecuteRound(t, &placed)
		if err != nil {
			return nil, err
		}
		// One SEND/RECV pair per multicast group and destination, at the
		// group's bytes: the tensor the NoC tree carries.
		for g, gr := range io.Groups {
			for wi, word := range io.DestSet(g) {
				for ; word != 0; word &= word - 1 {
					dst := wi<<6 | bits.TrailingZeros64(word)
					p.Streams[gr.Src] = append(p.Streams[gr.Src],
						Instr{Op: OpSend, Peer: dst, Bytes: gr.Bytes, Round: t})
					p.Streams[dst] = append(p.Streams[dst],
						Instr{Op: OpRecv, Peer: gr.Src, Bytes: gr.Bytes, Round: t})
				}
			}
		}
		for e := 0; e < n; e++ {
			if b := io.DRAMReadBytes[e]; b > 0 {
				p.Streams[e] = append(p.Streams[e],
					Instr{Op: OpLoadIn, Bytes: b, Round: t})
			}
		}
		for _, id := range round.Atoms {
			e := placed.Engine(id)
			p.Streams[e] = append(p.Streams[e],
				Instr{Op: OpCompute, Atom: id, Round: t},
				Instr{Op: OpStore, Atom: id, Bytes: d.Atoms[id].OutputBytes(), Round: t})
			p.Atoms++
		}
		for e := 0; e < n; e++ {
			if b := io.DRAMWriteBytes[e]; b > 0 {
				p.Streams[e] = append(p.Streams[e],
					Instr{Op: OpWriteback, Bytes: b, Round: t})
			}
			p.Streams[e] = append(p.Streams[e], Instr{Op: OpSync, Round: t})
		}
	}
	return p, nil
}

// Verify checks global stream consistency.
func (p *Program) Verify(d *atom.DAG) error {
	computed := make(map[int]bool)
	for e, stream := range p.Streams {
		round := -1
		for _, in := range stream {
			if in.Round < round {
				return fmt.Errorf("codegen: engine %d: round regressed %d -> %d", e, round, in.Round)
			}
			round = in.Round
			if in.Op == OpCompute {
				if computed[in.Atom] {
					return fmt.Errorf("codegen: atom %d computed twice", in.Atom)
				}
				computed[in.Atom] = true
			}
		}
	}
	// Every scheduled atom computed exactly once.
	want := 0
	for _, a := range d.Atoms {
		if a.Task.Kind != graph.OpInput {
			want++
		}
	}
	if len(computed) != want || p.Atoms != want {
		return fmt.Errorf("codegen: %d COMPUTEs for %d schedulable atoms", len(computed), want)
	}
	// SEND/RECV pairing per Round.
	type key struct{ src, dst, round int }
	balance := make(map[key]int64)
	for e, stream := range p.Streams {
		for _, in := range stream {
			switch in.Op {
			case OpSend:
				balance[key{e, in.Peer, in.Round}] += in.Bytes
			case OpRecv:
				balance[key{in.Peer, e, in.Round}] -= in.Bytes
			}
		}
	}
	for k, v := range balance {
		if v != 0 {
			return fmt.Errorf("codegen: unmatched transfer E%d->E%d round %d: %d bytes", k.src, k.dst, k.round, v)
		}
	}
	// SYNC count equals Rounds on every engine.
	for e, stream := range p.Streams {
		syncs := 0
		for _, in := range stream {
			if in.Op == OpSync {
				syncs++
			}
		}
		if syncs != p.Rounds {
			return fmt.Errorf("codegen: engine %d has %d SYNCs, want %d", e, syncs, p.Rounds)
		}
	}
	return nil
}

// Dump writes a human-readable listing of one engine's stream.
func (p *Program) Dump(w io.Writer, engineID int) error {
	if engineID < 0 || engineID >= len(p.Streams) {
		return fmt.Errorf("codegen: engine %d out of range", engineID)
	}
	fmt.Fprintf(w, "; engine %d — %d instructions, %d rounds\n",
		engineID, len(p.Streams[engineID]), p.Rounds)
	round := -1
	for _, in := range p.Streams[engineID] {
		if in.Round != round {
			round = in.Round
			fmt.Fprintf(w, ".round %d\n", round)
		}
		fmt.Fprintf(w, "    %s\n", in)
	}
	return nil
}

// Stats summarizes a program.
type Stats struct {
	Instructions int
	Computes     int
	Sends        int
	Recvs        int
	LoadBytes    int64
	StoreBytes   int64
}

// Stats aggregates instruction counts across all engines.
func (p *Program) Stats() Stats {
	var st Stats
	for _, stream := range p.Streams {
		for _, in := range stream {
			st.Instructions++
			switch in.Op {
			case OpCompute:
				st.Computes++
			case OpSend:
				st.Sends++
			case OpRecv:
				st.Recvs++
			case OpLoadIn, OpLoadW:
				st.LoadBytes += in.Bytes
			case OpStore, OpWriteback:
				st.StoreBytes += in.Bytes
			}
		}
	}
	return st
}
