// Package dram models the off-chip memory of the accelerator: a 4-layer
// HBM stack with 128 GB/s peak bandwidth (paper Sec. V-A; its 4 GB
// capacity holds every workload, so capacity is not modeled). It stands
// in for the Ramulator traces the paper feeds with access streams: the
// simulator only needs request completion times under bandwidth
// contention, which a channel-interleaved queue model provides.
package dram

import (
	"fmt"
	"math"
)

// Config describes the HBM stack. It holds no clock: the model prices
// requests in cycles of the engine clock New is given, so the engines and
// the memory always agree on what a cycle is.
type Config struct {
	PeakGBps float64 // aggregate peak bandwidth (128 GB/s)
	Channels int     // independent channels (HBM: 8)
}

// Default returns the paper's HBM configuration.
func Default() Config {
	return Config{PeakGBps: 128, Channels: 8}
}

// AccessLatency is the fixed per-request latency in engine cycles: ~120 ns
// of row activate + CAS at the paper's 500 MHz clock.
const AccessLatency int64 = 60

// burstBytes is the transfer granularity of the hit/miss accounting: one
// 32 B access per burst, the HBM pseudo-channel burst length.
const burstBytes = 32

// rowBytes is the DRAM row-buffer size of the hit/miss accounting. It
// prices nothing — requests are streaming, so the timing model already
// amortizes activations into AccessLatency — but the hit/miss split is
// the observability signal Ramulator would report for the same access
// stream.
const rowBytes = 2 << 10

// BytesPerCycle returns the aggregate bandwidth in bytes per cycle of an
// engine clocked at freqMHz.
func (c Config) BytesPerCycle(freqMHz float64) float64 {
	return c.PeakGBps * 1e3 / freqMHz // GB/s / MHz = bytes/cycle x 1e3
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	// NaN fails every comparison, so the bandwidth is checked as !(b > 0).
	if !(c.PeakGBps > 0) || math.IsInf(c.PeakGBps, 1) {
		return fmt.Errorf("dram: PeakGBps must be positive and finite, got %v", c.PeakGBps)
	}
	if c.Channels <= 0 {
		return fmt.Errorf("dram: Channels must be positive, got %d", c.Channels)
	}
	return nil
}

// HBM is a stateful bandwidth/queue model. Requests are assigned to the
// least-loaded channel (idealized address interleaving) and served at the
// per-channel bandwidth; a request issued while channels are busy waits.
type HBM struct {
	chanBW   float64 // one channel's bytes per engine cycle
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

// New returns an idle HBM model timed in cycles of an engine clocked at
// freqMHz.
func New(cfg Config, freqMHz float64) *HBM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &HBM{chanBW: cfg.BytesPerCycle(freqMHz) / float64(cfg.Channels),
		chanFree: make([]int64, cfg.Channels)}
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
	xfer := int64(float64(n)/h.chanBW) + 1
	done := start + AccessLatency + xfer
	h.chanFree[best] = done
	return done
}

// Stats returns the cumulative request accounting.
func (h *HBM) Stats() Stats { return h.stats }
