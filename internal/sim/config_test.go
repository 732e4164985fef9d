package sim

import (
	"math"
	"strings"
	"testing"

	"github.com/atomic-dataflow/atomicflow/internal/dram"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
)

// TestDefaultConfigPinned pins the fields of DefaultConfig: every
// experiment and the paper-comparison numbers in EXPERIMENTS.md assume
// this exact hardware model, so a drive-by change must fail a test.
func TestDefaultConfigPinned(t *testing.T) {
	c := DefaultConfig()
	if c.Mesh == nil || c.Mesh.W != 8 || c.Mesh.H != 8 {
		t.Errorf("Mesh = %+v, want 8x8", c.Mesh)
	}
	if c.Mesh.LinkBytes != 32 {
		t.Errorf("Mesh.LinkBytes = %d, want 32", c.Mesh.LinkBytes)
	}
	if c.Engine != engine.Default() {
		t.Errorf("Engine = %+v, want engine.Default()", c.Engine)
	}
	if c.Dataflow != engine.KCPartition {
		t.Errorf("Dataflow = %v, want KCPartition", c.Dataflow)
	}
	if !c.DoubleBuffer {
		t.Error("DoubleBuffer = false, want true")
	}
	if want := (dram.Config{PeakGBps: 128, Channels: 8}); c.DRAM != want {
		t.Errorf("DRAM = %+v, want %+v", c.DRAM, want)
	}
	if dram.AccessLatency != 60 {
		t.Errorf("dram.AccessLatency = %d, want 60", dram.AccessLatency)
	}
	if c.Oracle != nil {
		t.Error("Oracle non-nil: the default exports no oracle counter")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("DefaultConfig does not validate: %v", err)
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string // the field the error must name
	}{
		{"negative Engine.BufferBytes", func(c *Config) { c.Engine.BufferBytes = -1 }, "buffer"},
		{"nil mesh", func(c *Config) { c.Mesh = nil }, "mesh"},
		{"NaN Engine.FreqMHz", func(c *Config) { c.Engine.FreqMHz = math.NaN() }, "FreqMHz"},
		{"+Inf Engine.FreqMHz", func(c *Config) { c.Engine.FreqMHz = math.Inf(1) }, "FreqMHz"},
		{"zero Engine.VectorLanes", func(c *Config) { c.Engine.VectorLanes = 0 }, "VectorLanes"},
		{"zero Engine.PortBytes", func(c *Config) { c.Engine.PortBytes = 0 }, "PortBytes"},
		{"zero Engine.MACsPerPE", func(c *Config) { c.Engine.MACsPerPE = 0 }, "MACsPerPE"},
		{"NaN DRAM.PeakGBps", func(c *Config) { c.DRAM.PeakGBps = math.NaN() }, "PeakGBps"},
		{"+Inf DRAM.PeakGBps", func(c *Config) { c.DRAM.PeakGBps = math.Inf(1) }, "PeakGBps"},
		{"zero DRAM.Channels", func(c *Config) { c.DRAM.Channels = 0 }, "Channels"},
	} {
		c := DefaultConfig()
		tc.mutate(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}
