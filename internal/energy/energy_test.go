package energy

import (
	"math"
	"testing"
)

func TestBreakdownAccumulation(t *testing.T) {
	m := Default()
	var b Breakdown
	b.AddMACs(m, 1000)
	b.AddSRAM(m, 100, 50)
	b.AddNoC(m, 200)
	b.AddDRAM(m, 10)
	b.AddStatic(m, 500)
	wantMAC := 0.3 * 1000
	wantSRAM := 2.74*100 + 3.29*50
	wantNoC := 4.88 * 200
	wantDRAM := 56.0 * 10
	wantStatic := 10.0 * 500
	if !close(b.MAC, wantMAC) || !close(b.SRAM, wantSRAM) || !close(b.NoC, wantNoC) ||
		!close(b.DRAM, wantDRAM) || !close(b.Static, wantStatic) {
		t.Errorf("breakdown = %+v", b)
	}
	if !close(b.TotalPJ(), wantMAC+wantSRAM+wantNoC+wantDRAM+wantStatic) {
		t.Errorf("TotalPJ = %v", b.TotalPJ())
	}
	if !close(b.TotalMJ(), b.TotalPJ()/1e9) {
		t.Errorf("TotalMJ = %v", b.TotalMJ())
	}
}

// The paper's core energy argument: one byte from HBM costs far more than
// one byte over several NoC hops, which costs more than a local SRAM read.
// The model must preserve this hierarchy or the buffering strategy has no
// reason to exist.
func TestEnergyHierarchy(t *testing.T) {
	m := Default()
	sramByte := m.SRAMReadpJB
	noc3Hops := m.NoCpJBHop * 3
	dramByte := m.DRAMpJB
	if !(sramByte < noc3Hops && noc3Hops < dramByte) {
		t.Errorf("energy hierarchy violated: SRAM %.2f, NoC(3 hops) %.2f, DRAM %.2f",
			sramByte, noc3Hops, dramByte)
	}
}

func close(a, b float64) bool { return math.Abs(a-b) < 1e-6 }
