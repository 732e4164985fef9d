// Package dram models the off-chip memory of the accelerator: a 4-layer
// HBM stack with 4 GB capacity and 128 GB/s peak bandwidth (paper Sec.
// V-A). It stands in for the Ramulator traces the paper feeds with access
// streams: the simulator only needs request completion times under
// bandwidth contention, which a channel-interleaved queue model provides.
package dram

import "fmt"

// Config describes the HBM stack.
type Config struct {
	CapacityBytes  int64   // total capacity (4 GB)
	PeakGBps       float64 // aggregate peak bandwidth (128 GB/s)
	Channels       int     // independent channels (HBM: 8)
	AccessLatency  int64   // fixed per-request latency in engine cycles
	EngineClockMHz float64 // clock used to convert bandwidth to bytes/cycle
}

// Default returns the paper's HBM configuration at a 500 MHz engine clock.
func Default() Config {
	return Config{
		CapacityBytes:  4 << 30,
		PeakGBps:       128,
		Channels:       8,
		AccessLatency:  60, // ~120 ns row activate + CAS at 500 MHz
		EngineClockMHz: 500,
	}
}

// burstBytes is the transfer granularity of the hit/miss accounting: one
// 32 B access per burst, the HBM pseudo-channel burst length.
const burstBytes = 32

// rowBytes is the DRAM row-buffer size of the hit/miss accounting. It
// prices nothing — requests are streaming, so the timing model already
// amortizes activations into AccessLatency — but the hit/miss split is
// the observability signal Ramulator would report for the same access
// stream.
const rowBytes = 2 << 10

// BytesPerCycle returns the aggregate bandwidth in bytes per engine cycle.
func (c Config) BytesPerCycle() float64 {
	return c.PeakGBps * 1e3 / c.EngineClockMHz // GB/s / MHz = bytes/cycle x 1e3
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.CapacityBytes <= 0 || c.PeakGBps <= 0 || c.Channels <= 0 || c.EngineClockMHz <= 0 {
		return fmt.Errorf("dram: invalid config %+v", c)
	}
	return nil
}

// HBM is a stateful bandwidth/queue model. Requests are assigned to the
// least-loaded channel (idealized address interleaving) and served at the
// per-channel bandwidth; a request issued while channels are busy waits.
type HBM struct {
	cfg      Config
	chanFree []int64 // absolute cycle at which each channel is next free
	stats    Stats
}

// Stats is the HBM model's cumulative accounting — the quantities a
// Ramulator trace of the same access stream would expose. Row hits and
// misses follow an open-row streaming model: a request of n bytes makes
// ceil(n/burstBytes) accesses of which ceil(n/rowBytes) activate a new
// row (misses) and the rest stream from the open row (hits).
type Stats struct {
	Reads           int64 // read requests served
	Writes          int64 // write requests served
	RowHits         int64
	RowMisses       int64
	QueueWaitCycles int64 // Σ cycles requests waited for a free channel
	QueueDepthPeak  int64 // most channels simultaneously busy at any issue
}

// RowHitRate returns RowHits/(RowHits+RowMisses), 0 when idle.
func (s Stats) RowHitRate() float64 {
	if s.RowHits+s.RowMisses == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.RowHits+s.RowMisses)
}

// New returns an idle HBM model.
func New(cfg Config) *HBM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &HBM{cfg: cfg, chanFree: make([]int64, cfg.Channels)}
}

// Config returns the model's configuration.
func (h *HBM) Config() Config { return h.cfg }

// perChannelBytesPerCycle is the bandwidth of one channel.
func (h *HBM) perChannelBytesPerCycle() float64 {
	return h.cfg.BytesPerCycle() / float64(h.cfg.Channels)
}

// Read issues a read of n bytes at absolute cycle `now` and returns the
// completion cycle.
func (h *HBM) Read(now, n int64) int64 {
	if n > 0 {
		h.stats.Reads++
	}
	return h.serve(now, n)
}

// Write issues a write of n bytes at absolute cycle `now` and returns the
// completion cycle.
func (h *HBM) Write(now, n int64) int64 {
	if n > 0 {
		h.stats.Writes++
	}
	return h.serve(now, n)
}

func (h *HBM) serve(now, n int64) int64 {
	if n <= 0 {
		return now
	}
	// Row hit/miss accounting (timing is unaffected; see Stats).
	bursts := (n + burstBytes - 1) / burstBytes
	misses := (n + rowBytes - 1) / rowBytes
	if misses > bursts {
		misses = bursts
	}
	h.stats.RowMisses += misses
	h.stats.RowHits += bursts - misses
	// Queue depth at issue: channels still busy at `now`.
	depth := int64(0)
	for _, f := range h.chanFree {
		if f > now {
			depth++
		}
	}
	if depth > h.stats.QueueDepthPeak {
		h.stats.QueueDepthPeak = depth
	}
	// Pick the earliest-free channel.
	best := 0
	for i, f := range h.chanFree {
		if f < h.chanFree[best] {
			best = i
		}
	}
	start := now
	if h.chanFree[best] > start {
		start = h.chanFree[best]
		h.stats.QueueWaitCycles += start - now
	}
	xfer := int64(float64(n)/h.perChannelBytesPerCycle()) + 1
	done := start + h.cfg.AccessLatency + xfer
	h.chanFree[best] = done
	return done
}

// Stats returns the cumulative request accounting.
func (h *HBM) Stats() Stats { return h.stats }
