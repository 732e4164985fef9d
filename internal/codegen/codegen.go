// Package codegen lowers an orchestrated solution (atomic DAG + Round
// schedule + placement + buffering decisions) into per-engine command
// streams — the compile-time "instructions (or configurations) loaded
// before execution" of the paper's engine controller (Sec. II-A).
//
// The placement and buffering decisions are the simulator's own:
// Generate consumes sim.Replay, which prepares every Round exactly as
// sim.Run does, and lowers each Round's buffer witness — every engine's
// loads, sends, computes, stores, evictions and write-backs in
// Algorithm 3's order — one step to one instruction (a send to a SEND
// and its RECV). So a program is the lowering of the Report simulated on
// the same hardware: one SEND per NoC flow, and LOAD_IN and WRITEBK bytes
// equal to the Report's DRAM read and write bytes.
//
// The instruction set (check.Op, check.Instr) is declared in package
// check, whose Program replays a program against every engine's buffer.
// Every instruction but SYNC names a tensor: a<id>, atom id's output, or
// w<id>, weight slice id.
//
//	LOAD_IN  t bytes         read t's bytes for the Round's atom from DRAM
//	RECV     t src=E bytes   receive t's bytes from engine E over the NoC
//	SEND     t dst=E bytes   forward t's bytes to engine E
//	COMPUTE  atom            run one atom on the PE array/vector unit
//	STORE    t bytes         keep t in the local buffer
//	EVICT    t bytes         drop t from the local buffer
//	WRITEBK  t bytes         write output t to DRAM (eviction/final/spill)
//	SYNC     round           barrier at the end of each Round
//
// A tensor that is loaded or received streams through the engine and
// takes buffer space only when a STORE keeps it; an eviction that must
// keep its output is a WRITEBK followed by its EVICT.
package codegen

import (
	"fmt"
	"io"

	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/buffer"
	"github.com/atomic-dataflow/atomicflow/internal/check"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// Program is the lowered solution: one instruction stream per engine.
type Program struct {
	Streams [][]check.Instr // engine -> instructions
	Rounds  int
}

// opOf maps a witness step to its instruction.
var opOf = [...]check.Op{
	buffer.Load:      check.OpLoadIn,
	buffer.Send:      check.OpSend,
	buffer.Compute:   check.OpCompute,
	buffer.Store:     check.OpStore,
	buffer.Evict:     check.OpEvict,
	buffer.WriteBack: check.OpWriteback,
}

// Generate lowers the schedule on cfg's hardware: it replays the
// simulator's Round prep (sim.Replay) and appends each step of every
// Round's witness to its engine's stream, then closes the Round on every
// engine with a SYNC.
func Generate(d *atom.DAG, s *schedule.Schedule, cfg sim.Config) (*Program, error) {
	n := cfg.Mesh.Engines()
	p := &Program{Streams: make([][]check.Instr, n), Rounds: s.NumRounds()}
	err := sim.Replay(d, s, cfg, func(r sim.Prepared) {
		t := int32(r.Round)
		for _, ev := range r.Witness {
			in := check.Instr{Op: opOf[ev.Kind], Tensor: check.Tensor{ID: ev.ID, Weight: ev.Weight},
				Peer: ev.Peer, Round: t, Bytes: ev.Bytes}
			p.Streams[ev.Engine] = append(p.Streams[ev.Engine], in)
			if ev.Kind == buffer.Send {
				in.Op, in.Peer = check.OpRecv, ev.Engine
				p.Streams[ev.Peer] = append(p.Streams[ev.Peer], in)
			}
		}
		for e := range p.Streams {
			p.Streams[e] = append(p.Streams[e], check.Instr{Op: check.OpSync, Round: t})
		}
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Dump writes a human-readable listing of one engine's stream.
func (p *Program) Dump(w io.Writer, engineID int) error {
	if engineID < 0 || engineID >= len(p.Streams) {
		return fmt.Errorf("codegen: engine %d out of range", engineID)
	}
	fmt.Fprintf(w, "; engine %d — %d instructions, %d rounds\n",
		engineID, len(p.Streams[engineID]), p.Rounds)
	round := int32(-1)
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
	Evicts         int
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
			case check.OpCompute:
				st.Computes++
			case check.OpSend:
				st.Sends++
			case check.OpRecv:
				st.Recvs++
			case check.OpEvict:
				st.Evicts++
			case check.OpLoadIn:
				st.LoadBytes += in.Bytes
			case check.OpWriteback:
				st.WritebackBytes += in.Bytes
			}
		}
	}
	return st
}
