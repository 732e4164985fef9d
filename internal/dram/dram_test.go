package dram

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBytesPerCycle(t *testing.T) {
	cfg := Default()
	// 128 GB/s at 500 MHz = 256 B/cycle; at 1 GHz a cycle moves half.
	if got := cfg.BytesPerCycle(500); got != 256 {
		t.Errorf("BytesPerCycle(500) = %v, want 256", got)
	}
	if got := cfg.BytesPerCycle(1000); got != 128 {
		t.Errorf("BytesPerCycle(1000) = %v, want 128", got)
	}
}

func TestSingleRequestLatency(t *testing.T) {
	h := New(Default(), 500)
	// One channel serves 32 B/cycle; 3200 bytes = 100 cycles + latency.
	done := h.Read(0, 3200)
	want := AccessLatency + 100 + 1
	if done != want {
		t.Errorf("Read completion = %d, want %d", done, want)
	}
}

func TestChannelParallelism(t *testing.T) {
	h := New(Default(), 500)
	// 8 equal requests at t=0 spread over 8 channels: all finish at the
	// single-request time.
	var worst int64
	for i := 0; i < 8; i++ {
		if d := h.Read(0, 3200); d > worst {
			worst = d
		}
	}
	single := New(Default(), 500).Read(0, 3200)
	if worst != single {
		t.Errorf("8 parallel requests finish at %d, want %d", worst, single)
	}
	// A 9th request must queue behind one of them.
	if d := h.Read(0, 3200); d <= single {
		t.Errorf("9th request finished at %d, want > %d (queued)", d, single)
	}
}

func TestZeroByteRequestFree(t *testing.T) {
	h := New(Default(), 500)
	if d := h.Read(42, 0); d != 42 {
		t.Errorf("zero-byte read completes at %d, want 42", d)
	}
}

// Property: completion times never precede issue time and are monotone in
// request size.
func TestServeMonotone(t *testing.T) {
	f := func(nRaw uint16, nowRaw uint8) bool {
		h := New(Default(), 500)
		now := int64(nowRaw)
		n := int64(nRaw) + 1
		d1 := h.Read(now, n)
		h2 := New(Default(), 500)
		d2 := h2.Read(now, n*2)
		return d1 > now && d2 >= d1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	// Each bad field is named in the error, with its value.
	for _, tc := range []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Channels = 0 }, "Channels must be positive, got 0"},
		{func(c *Config) { c.PeakGBps = math.NaN() }, "PeakGBps must be positive and finite, got NaN"},
		{func(c *Config) { c.PeakGBps = math.Inf(1) }, "PeakGBps must be positive and finite, got +Inf"},
		{func(c *Config) { c.PeakGBps = -1 }, "PeakGBps must be positive and finite, got -1"},
	} {
		bad := Default()
		tc.mutate(&bad)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate() = %v, want %q", err, tc.want)
		}
	}
}

func TestRowHitMissAccounting(t *testing.T) {
	h := New(Default(), 500)
	// One 2 KB row = 64 bursts of 32 B: reading exactly one row is 1
	// activation (miss) + 63 open-row hits.
	h.Read(0, 2<<10)
	st := h.Stats()
	if st.Reads != 1 || st.RowMisses != 1 || st.RowHits != 63 {
		t.Errorf("one-row read stats = %+v, want 1 read, 1 miss, 63 hits", st)
	}
	// A 4-row streaming read activates 4 rows.
	h.Read(0, 8<<10)
	st = h.Stats()
	if st.RowMisses != 5 {
		t.Errorf("RowMisses = %d, want 5", st.RowMisses)
	}
	if got, want := st.RowHitRate(), float64(st.RowHits)/float64(st.RowHits+st.RowMisses); got != want {
		t.Errorf("RowHitRate = %v, want %v", got, want)
	}
	// A sub-burst request is a single miss, never negative hits.
	h2 := New(Default(), 500)
	h2.Read(0, 8)
	if st := h2.Stats(); st.RowMisses != 1 || st.RowHits != 0 {
		t.Errorf("tiny read stats = %+v", st)
	}
}

func TestQueueStats(t *testing.T) {
	h := New(Default(), 500)
	// Saturate all 8 channels, then one more request must wait.
	for i := 0; i < 8; i++ {
		h.Read(0, 3200)
	}
	if st := h.Stats(); st.QueueWaitCycles != 0 {
		t.Errorf("parallel requests waited %d cycles", st.QueueWaitCycles)
	}
	h.Read(0, 3200)
	st := h.Stats()
	if st.QueueWaitCycles <= 0 {
		t.Error("queued request recorded no wait")
	}
	if st.QueueDepthPeak != 8 {
		t.Errorf("QueueDepthPeak = %d, want 8", st.QueueDepthPeak)
	}
}
