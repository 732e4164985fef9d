package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// The traced run times the calls into each layer's public function from
// the benchmark's own code; nothing inside the program is instrumented.
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover.

type interval struct{ start, end time.Duration }

type span struct {
	name, layer string
	interval
	parent int // index of the enclosing span in the op, -1 for a root
}

// traceAgg accumulates the traced ops of one run.
type traceAgg struct {
	ops          int
	tracedTime   time.Duration // Σ wall time of the traced ops
	untracedOps  int           // ops run untraced for comparison
	untracedTime time.Duration // Σ wall time of those
	self         map[string]time.Duration
	count        map[string]float64 // raw sums the per-op metrics divide
	rt           runtimeStats       // Go runtime deltas over the untraced ops
	set          map[string]float64 // per-layer values a workload computes itself
}

func newTraceAgg() *traceAgg {
	return &traceAgg{self: map[string]time.Duration{}, count: map[string]float64{}, set: map[string]float64{}}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; args.trace_id is the op the span belongs to.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// tracer records the spans of the op being replayed and folds them into
// its traceAgg when the op ends. Spans are held in memory and written out
// only when the run ends.
type tracer struct {
	epoch time.Time
	agg   *traceAgg
	keep  bool // retain events for the Chrome trace file

	op    int
	spans []span

	mu     sync.Mutex
	cost   []interval // exact cost evaluations of the current op
	events []chromeEvent
}

func newTracer(keep bool) *tracer {
	return &tracer{epoch: time.Now(), agg: newTraceAgg(), keep: keep}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) beginOp(op int) {
	t.op = op
	t.spans = t.spans[:0]
	t.cost = t.cost[:0]
}

// span runs fn as a span of layer under parent; fn receives the span's
// index to open child spans.
func (t *tracer) span(name, layer string, parent int, fn func(id int)) {
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, layer: layer, parent: parent, interval: interval{start: t.now()}})
	fn(id)
	t.spans[id].end = t.now()
}

func (t *tracer) addCost(iv interval) {
	t.mu.Lock()
	t.cost = append(t.cost, iv)
	t.mu.Unlock()
}

// emit records a finished span for the trace file only.
func (t *tracer) emit(name, cat string, iv interval, lane, op int) {
	if !t.keep {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, chromeEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: float64(iv.start) / 1e3, Dur: float64(iv.end-iv.start) / 1e3,
		PID: 1, TID: lane, Args: map[string]int{"trace_id": op},
	})
	t.mu.Unlock()
}

// endOp attributes the op's spans: each cost evaluation belongs to the
// innermost span it started in, and every span's self time is its
// duration minus the union of its children.
func (t *tracer) endOp() {
	costs := union(t.cost)
	children := make([][]interval, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.interval)
		}
	}
	for _, c := range costs {
		owner := -1
		for i, s := range t.spans { // parents precede children, so the last match is innermost
			if s.start <= c.start && c.start < s.end {
				owner = i
			}
		}
		if owner >= 0 {
			children[owner] = append(children[owner], c)
		}
		t.agg.self["cost"] += c.end - c.start
	}
	for i, s := range t.spans {
		t.agg.self[s.layer] += s.end - s.start - covered(children[i], s.interval)
		t.emit(s.name, s.layer, s.interval, 1, t.op)
	}
	// The file gets the cost evaluations coalesced across gaps under
	// 20µs: thousands of sub-microsecond spans per op would swamp it.
	for _, c := range coalesce(costs, 20*time.Microsecond) {
		t.emit("cost.Evaluate (exact)", "cost", c, 1, t.op)
	}
}

// timedOracle is the bottom of the traced oracle stack
// Instrumented(Memo(timedOracle)), the same stack as cost.Default(), so
// only cache misses — the exact engine-model evaluations — are timed.
type timedOracle struct{ t *tracer }

func (o timedOracle) Evaluate(cfg engine.Config, df engine.Dataflow, task engine.Task) engine.Cost {
	start := o.t.now()
	c := cost.Direct{}.Evaluate(cfg, df, task)
	o.t.addCost(interval{start, o.t.now()})
	return c
}

func (t *tracer) oracle() *cost.Instrumented {
	return cost.NewInstrumented(cost.NewMemo(timedOracle{t}))
}

// countSim folds the Report and obs counters of a replayed sim.Run.
func (a *traceAgg) countSim(reg *obs.Registry, f hwFacts, r sim.Report) {
	for _, name := range []string{"sim_pipeline_stalls_total", "mapping_permutations_total",
		"noc_flows_total", "dram_requests_total", "buffer_evictions_total", "sim_rounds_total"} {
		a.count[name] += float64(reg.Counter(name).Value())
	}
	a.count["rep.cycles"] += float64(r.Cycles)
	a.count["rep.noc"] += float64(r.NoCBlockedCycles)
	a.count["rep.dram"] += float64(r.DRAMBlockedCycles)
	a.count["rep.macs"] += float64(r.MACs)
	a.count["rep.capacity"] += float64(r.ComputeCycles) * float64(f.macsPer)
}

func (a *traceAgg) countOracle(o *cost.Instrumented) {
	st := o.Stats()
	a.count["cost.hits"] += float64(st.Hits)
	a.count["cost.misses"] += float64(st.Misses)
}

// perLayerValues turns the accumulated spans and counts into every
// declared per-layer metric.
func (a *traceAgg) perLayerValues() map[string]float64 {
	ops := float64(a.ops)
	ms := func(d time.Duration) float64 { return div(float64(d)/1e6, ops) }
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.name] = 0
	}
	for _, l := range []string{"anneal", "atom", "schedule", "sim", "baseline"} {
		v[l+".self_ms_per_op"] = ms(a.self[l])
	}
	other := 1.0
	for _, s := range shares {
		v[s.metric] = div(float64(a.self[s.layer]), float64(a.tracedTime))
		other -= v[s.metric]
	}
	v["other.share"] = other

	c := a.count
	v["anneal.iters_per_op"] = div(c["anneal.iters"], ops)
	v["cost.exact_evals_per_op"] = div(c["cost.misses"], ops)
	v["cost.exact_ms_per_op"] = ms(a.self["cost"])
	v["cost.hit_rate"] = div(c["cost.hits"], c["cost.hits"]+c["cost.misses"])
	v["atom.atoms_per_op"] = div(c["atoms"], ops)
	v["schedule.rounds_per_op"] = div(c["rounds"], ops)
	v["sim.us_per_round"] = div(float64(a.self["sim"])/1e3, c["sim_rounds_total"])
	v["sim.pipeline_stalls_per_op"] = div(c["sim_pipeline_stalls_total"], ops)
	v["mapping.permutations_per_op"] = div(c["mapping_permutations_total"], ops)
	v["noc.flows_per_op"] = div(c["noc_flows_total"], ops)
	v["dram.requests_per_op"] = div(c["dram_requests_total"], ops)
	v["buffer.evictions_per_op"] = div(c["buffer_evictions_total"], ops)
	v["sim.noc_blocked_frac"] = div(c["rep.noc"], c["rep.cycles"])
	v["sim.dram_blocked_frac"] = div(c["rep.dram"], c["rep.cycles"])
	v["sim.compute_util"] = div(c["rep.macs"], c["rep.capacity"])
	v["gc.cpu_share"] = div(a.rt.gcCPU, a.rt.totalCPU)
	v["gc.cycles_per_op"] = div(a.rt.gcCycles, float64(a.untracedOps))
	for k, x := range a.set {
		v[k] = x
	}
	return v
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// union returns the sorted, disjoint union of ivs.
func union(ivs []interval) []interval { return coalesce(ivs, 0) }

// coalesce merges intervals that overlap or lie within gap of each other.
func coalesce(ivs []interval, gap time.Duration) []interval {
	s := slices.Clone(ivs)
	slices.SortFunc(s, func(a, b interval) int { return int(a.start - b.start) })
	var out []interval
	for _, iv := range s {
		if n := len(out); n > 0 && iv.start <= out[n-1].end+gap {
			out[n-1].end = max(out[n-1].end, iv.end)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered is the length of within that the union of ivs covers.
func covered(ivs []interval, within interval) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		iv.start, iv.end = max(iv.start, within.start), min(iv.end, within.end)
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	var n time.Duration
	for _, iv := range union(clipped) {
		n += iv.end - iv.start
	}
	return n
}

// writeChrome writes the retained spans as a Chrome trace-event file.
func (t *tracer) writeChrome(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": t.events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	path := filepath.Join(dir, workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
