// Package energy accounts for the accelerator's energy consumption using
// the constants the paper states (Sec. V-A): NoC 0.61 pJ/bit/hop (Tangram),
// HBM 7 pJ/bit (Cacti-3dd), and TSMC-28nm SRAM read power of 10.96 mW for
// a 128 KB macro at 0.9 V. MAC energy uses a typical 28nm INT8 figure.
package energy

// Model holds per-event energy costs in picojoules.
type Model struct {
	MACpJ        float64 // per INT8 multiply-accumulate
	SRAMReadpJB  float64 // per byte read from an engine's global buffer
	SRAMWritepJB float64 // per byte written to an engine's global buffer
	NoCpJBHop    float64 // per byte per mesh hop
	DRAMpJB      float64 // per byte to/from HBM
	StaticpJCyc  float64 // per engine per cycle (leakage + clock tree)
}

// Default returns the paper's energy model.
// SRAM: 10.96 mW at 500 MHz moving 8 B/cycle = 21.92 pJ/cycle = 2.74 pJ/B
// read; writes cost ~1.2x. NoC: 0.61 pJ/bit = 4.88 pJ/B per hop. HBM:
// 7 pJ/bit = 56 pJ/B.
func Default() Model {
	return Model{
		MACpJ:        0.3,
		SRAMReadpJB:  2.74,
		SRAMWritepJB: 3.29,
		NoCpJBHop:    4.88,
		DRAMpJB:      56,
		StaticpJCyc:  10,
	}
}

// Breakdown accumulates energy by component, in picojoules.
type Breakdown struct {
	MAC, SRAM, NoC, DRAM, Static float64
}

// AddMACs charges n MAC operations.
func (b *Breakdown) AddMACs(m Model, n int64) { b.MAC += m.MACpJ * float64(n) }

// AddSRAM charges buffer traffic in bytes.
func (b *Breakdown) AddSRAM(m Model, readBytes, writeBytes int64) {
	b.SRAM += m.SRAMReadpJB*float64(readBytes) + m.SRAMWritepJB*float64(writeBytes)
}

// AddNoC charges byte-hops of mesh traffic.
func (b *Breakdown) AddNoC(m Model, byteHops int64) { b.NoC += m.NoCpJBHop * float64(byteHops) }

// AddDRAM charges HBM traffic in bytes.
func (b *Breakdown) AddDRAM(m Model, bytes int64) { b.DRAM += m.DRAMpJB * float64(bytes) }

// AddStatic charges engine-cycles of static power.
func (b *Breakdown) AddStatic(m Model, engineCycles int64) {
	b.Static += m.StaticpJCyc * float64(engineCycles)
}

// TotalPJ returns total energy in picojoules.
func (b *Breakdown) TotalPJ() float64 { return b.MAC + b.SRAM + b.NoC + b.DRAM + b.Static }

// TotalMJ returns total energy in millijoules.
func (b *Breakdown) TotalMJ() float64 { return b.TotalPJ() / 1e9 }
