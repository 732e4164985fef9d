package serve

import (
	"cmp"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/knob"
	"github.com/atomic-dataflow/atomicflow/internal/modelio"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// Request is the /solve body. Exactly one of Model (a bundled zoo name)
// or Graph (an inline internal/modelio JSON document) selects the
// workload; the remaining fields tune the orchestration and the hardware
// model. Zero values select the library defaults, and ParseRequest
// normalizes them before the cache key is computed, so requests that
// spell the defaults out hash identically to requests that omit them.
type Request struct {
	Model string          `json:"model,omitempty"`
	Graph json.RawMessage `json:"graph,omitempty"`

	Batch    int           `json:"batch,omitempty"`
	Seed     int64         `json:"seed,omitempty"`
	SAIters  int           `json:"sa_iters,omitempty"`
	Chains   int           `json:"chains,omitempty"` // annealing portfolio width (default 1)
	MaxTiles int           `json:"max_tiles,omitempty"`
	Mode     schedule.Mode `json:"mode,omitempty"` // "dp" (default) or "greedy"

	Hardware *HardwareSpec `json:"hardware,omitempty"`

	// Trace includes the full-span trace document of the simulated
	// execution (engine, NoC and DRAM lanes; see
	// atomicflow.Options.TraceWriter) in the response and the cached
	// entry.
	Trace bool `json:"trace,omitempty"`

	// TimeoutMS overrides the server's per-request deadline, clamped to
	// the server maximum. Not part of the cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	graph     *graph.Graph // decoded workload
	graphHash string       // sha256 of the canonical modelio encoding
	key       string       // full cache key, set by ParseRequest
}

// HardwareSpec overrides a subset of the default hardware model. Zero
// fields keep the paper's Sec. V-A defaults.
type HardwareSpec struct {
	MeshW        int             `json:"mesh_w,omitempty"`
	MeshH        int             `json:"mesh_h,omitempty"`
	LinkBytes    int             `json:"link_bytes,omitempty"`
	BufferBytes  int             `json:"buffer_bytes,omitempty"`
	Dataflow     engine.Dataflow `json:"dataflow,omitempty"` // "kcp" (default) or "yxp"
	NaiveMapping bool            `json:"naive_mapping,omitempty"`
	DoubleBuffer *bool           `json:"double_buffer,omitempty"` // default true
}

// ParseRequest decodes, validates and normalizes a /solve body and
// computes its canonical cache key. It never panics on arbitrary input
// (fuzzed by FuzzSolveRequest), and parsing the same bytes twice yields
// the same key. Unknown fields, such as "surrogate", "verify_delta" or
// "warm_start" from older clients, are ignored.
func ParseRequest(data []byte) (*Request, error) {
	var r Request
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("serve: bad request body: %w", err)
	}
	if err := r.normalize(); err != nil {
		return nil, err
	}
	return &r, nil
}

func (r *Request) normalize() error {
	switch {
	case r.Model != "" && len(r.Graph) > 0:
		return fmt.Errorf("serve: request has both model and graph; pick one")
	case r.Model == "" && len(r.Graph) == 0:
		return fmt.Errorf("serve: request needs a model name or an inline graph")
	case r.Model != "":
		g, err := models.Build(r.Model)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		r.graph = g
	default:
		g, err := modelio.Decode(r.Graph)
		if err != nil {
			return fmt.Errorf("serve: inline graph: %w", err)
		}
		r.graph = g
	}
	// Canonical graph identity: re-encode the decoded graph so whitespace,
	// field order and default spellings in the submitted JSON cannot split
	// the cache.
	canon, err := modelio.Encode(r.graph)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	sum := sha256.Sum256(canon)
	r.graphHash = hex.EncodeToString(sum[:])

	if err := cmp.Or(
		knob.Batch.Normalize(&r.Batch),
		knob.Seed.Normalize(&r.Seed),
		knob.SAIters.Normalize(&r.SAIters),
		knob.Chains.Normalize(&r.Chains),
		knob.MaxTiles.Normalize(&r.MaxTiles),
		knob.TimeoutMS.Normalize(&r.TimeoutMS),
	); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if r.Hardware == nil {
		r.Hardware = &HardwareSpec{}
	}
	if err := r.Hardware.normalize(); err != nil {
		return err
	}
	r.key = r.computeKey()
	return nil
}

func (h *HardwareSpec) normalize() error {
	// A zero buffer_bytes stays 0, the key's "buf 0": only a set one is checked.
	buf := h.BufferBytes
	if err := cmp.Or(
		knob.MeshW.Normalize(&h.MeshW),
		knob.MeshH.Normalize(&h.MeshH),
		knob.LinkBytes.Normalize(&h.LinkBytes),
		knob.BufferBytes.Normalize(&buf),
	); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if h.DoubleBuffer == nil {
		def := sim.DefaultConfig().DoubleBuffer
		h.DoubleBuffer = &def
	}
	return nil
}

// Key returns the canonical cache key: a digest over the canonical graph
// encoding, the normalized orchestration options and the normalized
// hardware spec. Two requests with the same key are guaranteed the same
// solution, which is what licenses the cache and the singleflight dedup.
func (r *Request) Key() string { return r.key }

func (r *Request) computeKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "graph %s\n", r.graphHash)
	// "surrogate false" and "warm false" are fixed tokens left from the
	// removed learned cost oracle and warm-start search: keys written by
	// earlier builds carry them, and -store directories they wrote must
	// keep replaying under the same keys.
	fmt.Fprintf(h, "batch %d seed %d iters %d chains %d tiles %d mode %s trace %t surrogate false warm false\n",
		r.Batch, r.Seed, r.SAIters, r.Chains, r.MaxTiles, text(r.Mode), r.Trace)
	hw := r.Hardware
	// A set buffer_bytes sizes the engine, so the search's atoms as well
	// as the simulated buffer; earlier builds sized only the latter. The
	// "ebuf" token keeps their stored answers from replaying, and leaves
	// every key without buffer_bytes as it was.
	buf := "buf"
	if hw.BufferBytes > 0 {
		buf = "ebuf"
	}
	fmt.Fprintf(h, "hw %dx%d link %d %s %d df %s naive %t dbuf %t\n",
		hw.MeshW, hw.MeshH, hw.LinkBytes, buf, hw.BufferBytes, text(hw.Dataflow),
		hw.NaiveMapping, *hw.DoubleBuffer)
	return hex.EncodeToString(h.Sum(nil))
}

// text is v's /solve spelling, which the key has always written.
func text(v encoding.TextMarshaler) string {
	b, _ := v.MarshalText()
	return string(b)
}

// hardware assembles the request's accelerator model on the default one.
func (r *Request) hardware() sim.Config {
	hw := sim.DefaultConfig()
	h := r.Hardware
	hw.Mesh = noc.NewMesh(h.MeshW, h.MeshH, h.LinkBytes)
	hw.Engine.BufferBytes = cmp.Or(h.BufferBytes, hw.Engine.BufferBytes)
	hw.Dataflow, hw.NaiveMapping, hw.DoubleBuffer = h.Dataflow, h.NaiveMapping, *h.DoubleBuffer
	return hw
}
