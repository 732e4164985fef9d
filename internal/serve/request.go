package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/modelio"
	"github.com/atomic-dataflow/atomicflow/internal/models"
	"github.com/atomic-dataflow/atomicflow/internal/noc"
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

	Batch    int    `json:"batch,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	SAIters  int    `json:"sa_iters,omitempty"`
	Chains   int    `json:"chains,omitempty"` // annealing portfolio width (default 1)
	MaxTiles int    `json:"max_tiles,omitempty"`
	Mode     string `json:"mode,omitempty"` // "dp" (default) or "greedy"

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
	MeshW        int    `json:"mesh_w,omitempty"`
	MeshH        int    `json:"mesh_h,omitempty"`
	LinkBytes    int    `json:"link_bytes,omitempty"`
	BufferBytes  int64  `json:"buffer_bytes,omitempty"`
	Dataflow     string `json:"dataflow,omitempty"` // "kcp" (default) or "yxp"
	NaiveMapping bool   `json:"naive_mapping,omitempty"`
	DoubleBuffer *bool  `json:"double_buffer,omitempty"` // default true
}

// Request validation bounds. They exist to keep one malformed or hostile
// request from monopolizing a worker, not to be generous: a request at
// every limit is still a few seconds of search.
const (
	MaxBatch       = 64
	MaxSAIters     = 20000
	MaxChains      = 16
	MaxTilesLimit  = 4096
	MaxMeshDim     = 32
	MaxLinkBytes   = 1024
	MaxBufferBytes = 1 << 30
)

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

	if r.Batch == 0 {
		r.Batch = 1
	}
	if r.Batch < 1 || r.Batch > MaxBatch {
		return fmt.Errorf("serve: batch %d out of range [1,%d]", r.Batch, MaxBatch)
	}
	if r.Seed == 0 {
		r.Seed = 1 // the search treats seed 0 as 1; normalize for the key
	}
	if r.SAIters == 0 {
		r.SAIters = 600
	}
	if r.SAIters < 1 || r.SAIters > MaxSAIters {
		return fmt.Errorf("serve: sa_iters %d out of range [1,%d]", r.SAIters, MaxSAIters)
	}
	if r.Chains == 0 {
		r.Chains = 1
	}
	if r.Chains < 1 || r.Chains > MaxChains {
		return fmt.Errorf("serve: chains %d out of range [1,%d]", r.Chains, MaxChains)
	}
	if r.MaxTiles == 0 {
		r.MaxTiles = 1024
	}
	if r.MaxTiles < 1 || r.MaxTiles > MaxTilesLimit {
		return fmt.Errorf("serve: max_tiles %d out of range [1,%d]", r.MaxTiles, MaxTilesLimit)
	}
	switch r.Mode {
	case "":
		r.Mode = "dp"
	case "dp", "greedy":
	default:
		return fmt.Errorf("serve: unknown mode %q (want dp or greedy)", r.Mode)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("serve: negative timeout_ms %d", r.TimeoutMS)
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
	def := sim.DefaultConfig()
	if h.MeshW == 0 {
		h.MeshW = def.Mesh.W
	}
	if h.MeshH == 0 {
		h.MeshH = def.Mesh.H
	}
	if h.MeshW < 1 || h.MeshW > MaxMeshDim || h.MeshH < 1 || h.MeshH > MaxMeshDim {
		return fmt.Errorf("serve: mesh %dx%d out of range [1,%d]", h.MeshW, h.MeshH, MaxMeshDim)
	}
	if h.LinkBytes == 0 {
		h.LinkBytes = def.Mesh.LinkBytes
	}
	if h.LinkBytes < 1 || h.LinkBytes > MaxLinkBytes {
		return fmt.Errorf("serve: link_bytes %d out of range [1,%d]", h.LinkBytes, MaxLinkBytes)
	}
	if h.BufferBytes < 0 || h.BufferBytes > MaxBufferBytes {
		return fmt.Errorf("serve: buffer_bytes %d out of range [0,%d]", h.BufferBytes, MaxBufferBytes)
	}
	switch h.Dataflow {
	case "":
		h.Dataflow = "kcp"
	case "kcp", "yxp":
	default:
		return fmt.Errorf("serve: unknown dataflow %q (want kcp or yxp)", h.Dataflow)
	}
	if h.DoubleBuffer == nil {
		t := true
		h.DoubleBuffer = &t
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
		r.Batch, r.Seed, r.SAIters, r.Chains, r.MaxTiles, r.Mode, r.Trace)
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
		hw.MeshW, hw.MeshH, hw.LinkBytes, buf, hw.BufferBytes, hw.Dataflow,
		hw.NaiveMapping, *hw.DoubleBuffer)
	return hex.EncodeToString(h.Sum(nil))
}

// hardware assembles the request's accelerator model on top of base.
func (r *Request) hardware(base sim.Config) sim.Config {
	hw := base
	h := r.Hardware
	hw.Mesh = noc.NewMesh(h.MeshW, h.MeshH, h.LinkBytes)
	if h.BufferBytes > 0 {
		hw.Engine.BufferBytes = int(h.BufferBytes)
	}
	if h.Dataflow == "yxp" {
		hw.Dataflow = engine.YXPartition
	} else {
		hw.Dataflow = engine.KCPartition
	}
	hw.NaiveMapping = h.NaiveMapping
	hw.DoubleBuffer = *h.DoubleBuffer
	return hw
}
