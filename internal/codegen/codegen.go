// Package codegen lowers an orchestrated solution (atomic DAG + Round
// schedule + placement + buffering decisions) into per-engine command
// streams — the compile-time "instructions (or configurations) loaded
// before execution" of the paper's engine controller (Sec. II-A).
//
// The placement and buffering decisions are the simulator's own:
// Generate consumes sim.Replay, which prepares every Round exactly as
// sim.Run does, and only turns each prepared Round into instructions. So
// a program is the lowering of the Report simulated on the same hardware:
// one SEND per NoC flow, and LOAD_IN and WRITEBK bytes equal to the
// Report's DRAM read and write bytes.
//
// The instruction set is deliberately small and matches what the
// simulator models. There is no separate weight load: like
// buffer.RoundIO.DRAMReadBytes, LOAD_IN lumps every DRAM byte an engine
// reads in a Round, weights and inputs alike.
//
//	LOAD_IN  dst=self            fetch the Round's DRAM bytes
//	RECV     src=engine          receive a tensor region over the NoC
//	SEND     dst=engine          forward a resident tensor region
//	COMPUTE  atom                run one atom on the PE array/vector unit
//	STORE    —                   keep the produced tile in the local buffer
//	WRITEBK  —                   write tiles back to DRAM (eviction/final)
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
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// Op is an engine-controller opcode.
type Op int

const (
	OpLoadIn Op = iota
	OpRecv
	OpSend
	OpCompute
	OpStore
	OpWriteback
	OpSync
)

var opNames = [...]string{"LOAD_IN", "RECV", "SEND", "COMPUTE", "STORE", "WRITEBK", "SYNC"}

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
}

// Generate lowers the schedule on cfg's hardware: it replays the
// simulator's Round prep (sim.Replay) and emits each prepared Round's
// transfers, DRAM traffic and computes into per-engine streams.
func Generate(d *atom.DAG, s *schedule.Schedule, cfg sim.Config) (*Program, error) {
	n := cfg.Mesh.Engines()
	p := &Program{Streams: make([][]Instr, n), Rounds: s.NumRounds()}
	err := sim.Replay(d, s, cfg, func(r sim.Prepared) {
		t, io := r.Round, r.IO
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
				p.Streams[e] = append(p.Streams[e], Instr{Op: OpLoadIn, Bytes: b, Round: t})
			}
		}
		for _, id := range s.Rounds[t].Atoms {
			e := r.Placed.Engine(id)
			p.Streams[e] = append(p.Streams[e],
				Instr{Op: OpCompute, Atom: id, Round: t},
				Instr{Op: OpStore, Atom: id, Bytes: d.Atoms[id].OutputBytes(), Round: t})
		}
		for e := 0; e < n; e++ {
			if b := io.DRAMWriteBytes[e]; b > 0 {
				p.Streams[e] = append(p.Streams[e], Instr{Op: OpWriteback, Bytes: b, Round: t})
			}
			p.Streams[e] = append(p.Streams[e], Instr{Op: OpSync, Round: t})
		}
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Verify checks global stream consistency in one pass: Rounds never
// regress within a stream, every engine closes each Round with one SYNC,
// every schedulable atom of d is computed exactly once, and each Round's
// SENDs and RECVs pair up byte for byte.
func (p *Program) Verify(d *atom.DAG) error {
	computed := make(map[int]bool)
	type key struct{ src, dst, round int }
	balance := make(map[key]int64)
	for e, stream := range p.Streams {
		round, syncs := -1, 0
		for _, in := range stream {
			if in.Round < round {
				return fmt.Errorf("codegen: engine %d: round regressed %d -> %d", e, round, in.Round)
			}
			round = in.Round
			switch in.Op {
			case OpCompute:
				if computed[in.Atom] {
					return fmt.Errorf("codegen: atom %d computed twice", in.Atom)
				}
				computed[in.Atom] = true
			case OpSend:
				balance[key{e, in.Peer, in.Round}] += in.Bytes
			case OpRecv:
				balance[key{in.Peer, e, in.Round}] -= in.Bytes
			case OpSync:
				syncs++
			}
		}
		if syncs != p.Rounds {
			return fmt.Errorf("codegen: engine %d has %d SYNCs, want %d", e, syncs, p.Rounds)
		}
	}
	want := 0
	for _, a := range d.Atoms {
		if a.Task.Kind != graph.OpInput {
			want++
		}
	}
	if len(computed) != want {
		return fmt.Errorf("codegen: %d COMPUTEs for %d schedulable atoms", len(computed), want)
	}
	for k, v := range balance {
		if v != 0 {
			return fmt.Errorf("codegen: unmatched transfer E%d->E%d round %d: %d bytes", k.src, k.dst, k.round, v)
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

// Stats summarizes a program. Its bytes are DRAM traffic, not STORE tiles.
type Stats struct {
	Instructions   int
	Computes       int
	Sends          int
	Recvs          int
	LoadBytes      int64 // LOAD_IN: DRAM bytes read
	WritebackBytes int64 // WRITEBK: DRAM bytes written
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
			case OpLoadIn:
				st.LoadBytes += in.Bytes
			case OpWriteback:
				st.WritebackBytes += in.Bytes
			}
		}
	}
	return st
}
