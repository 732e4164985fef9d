package sim

import (
	"testing"

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
	if c.BufferBytes != 0 {
		t.Errorf("BufferBytes = %d, want 0 (engine default)", c.BufferBytes)
	}
	if c.Oracle != nil {
		t.Error("Oracle non-nil: the default exports no oracle counter")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("DefaultConfig does not validate: %v", err)
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	c := DefaultConfig()
	c.BufferBytes = -1
	if err := c.Validate(); err == nil {
		t.Error("negative BufferBytes validated")
	}
	c = DefaultConfig()
	c.Mesh = nil
	if err := c.Validate(); err == nil {
		t.Error("nil mesh validated")
	}
}
