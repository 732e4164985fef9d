package check

import "fmt"

// Op is an engine-controller opcode: the instruction set of a lowered
// program (package codegen), declared here beside the rules Program
// checks it by.
type Op uint8

const (
	OpLoadIn Op = iota
	OpRecv
	OpSend
	OpCompute
	OpStore
	OpEvict
	OpWriteback
	OpSync
)

var opNames = [...]string{"LOAD_IN", "RECV", "SEND", "COMPUTE", "STORE", "EVICT", "WRITEBK", "SYNC"}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Tensor names one tensor a program moves: an atom's output (ID the
// atom) or a weight slice (ID the DAG's slice id, atom.DAG.WeightSlice).
type Tensor struct {
	ID     int32
	Weight bool
}

// String renders the tensor as a<atom> or w<slice>.
func (t Tensor) String() string {
	if t.Weight {
		return fmt.Sprintf("w%d", t.ID)
	}
	return fmt.Sprintf("a%d", t.ID)
}

// Instr is one engine-controller instruction. Tensor is the operand of
// every op but SYNC; COMPUTE names the atom it runs by the atom's output.
type Instr struct {
	Op     Op
	Tensor Tensor
	Peer   int32 // SEND: destination engine; RECV: source engine
	Round  int32 // owning Round (SYNC: the Round being closed)
	Bytes  int64 // tensor bytes moved, stored or dropped (0 for COMPUTE/SYNC)
}

// String renders the instruction in listing form.
func (i Instr) String() string {
	switch i.Op {
	case OpCompute:
		return fmt.Sprintf("%-8s atom=%d", i.Op, i.Tensor.ID)
	case OpRecv:
		return fmt.Sprintf("%-8s %v src=E%d bytes=%d", i.Op, i.Tensor, i.Peer, i.Bytes)
	case OpSend:
		return fmt.Sprintf("%-8s %v dst=E%d bytes=%d", i.Op, i.Tensor, i.Peer, i.Bytes)
	case OpSync:
		return fmt.Sprintf("%-8s round=%d", i.Op, i.Round)
	default:
		return fmt.Sprintf("%-8s %v bytes=%d", i.Op, i.Tensor, i.Bytes)
	}
}
