package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	atomicflow "github.com/atomic-dataflow/atomicflow"
	"github.com/atomic-dataflow/atomicflow/internal/anneal"
	"github.com/atomic-dataflow/atomicflow/internal/atom"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/engine"
	"github.com/atomic-dataflow/atomicflow/internal/experiments"
	"github.com/atomic-dataflow/atomicflow/internal/graph"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
)

// workload is one input set of the benchmark. Every workload is a closed
// loop: a caller sends its next op only after the previous one returns.
// Why each was chosen is recorded in BENCHMARK.json and bench/README.md.
type workload struct {
	name string
	// fixed is the length of the op list every run completes before the
	// time budget applies. The simulated metrics and the digest
	// fingerprint cover exactly these ops, so they depend on the seed
	// alone, never on how fast the host is.
	fixed int
	open  func(seed int64, env env) (session, error)
}

// env is what a session may touch outside its inputs.
type env struct {
	tmp    string // scratch directory for the serve layer's store
	traced bool   // the session will run a traced measurement
}

// The fixed op lists are long enough that the simulated metrics vary by
// under 2% from seed to seed, and short enough to end well within a run
// on a slow host.
var workloads = []workload{
	{name: "compile-b1", fixed: 12, open: openCompile([]string{"resnet50", "inceptionv3", "deepchain1k"}, 1)},
	{name: "compile-b8", fixed: 6, open: openCompile([]string{"resnet50", "inceptionv3"}, 8)},
	{name: "serve-mixed", fixed: 180, open: openServe}, // 36 cold: 6 per (model, dataflow)
	{name: "adexp-fig8", fixed: 6, open: openFig8},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// session is one set-up workload, ready to measure.
type session interface {
	// measure runs untraced ops and returns their end-to-end record.
	measure(l limit, fixed int) (*measurement, error)
	// trace runs each op untraced and then traced, folding the traced
	// spans into t; the record counts the op pairs.
	trace(l limit, t *tracer) (*measurement, error)
	close() error
}

// limit bounds a run: a fixed op count (smoke tests) or a time budget.
type limit struct {
	seconds time.Duration
	ops     int
}

// more reports whether a closed loop that has completed done ops, busy
// for busy of the elapsed wall time, starts another: always until the
// fixed op list is done, then while the next op is expected to end within
// the time budget.
func (l limit) more(done, fixed int, elapsed, busy time.Duration) bool {
	if l.ops > 0 {
		return done < l.ops
	}
	if done < fixed {
		return true
	}
	return elapsed+busy/time.Duration(done) <= l.seconds
}

// measurement is the record of one measured run. Latencies and the
// window are at the reference host speed; the raw ones are as timed.
type measurement struct {
	lat, rawLat       []float64 // every completed op's latency, ms
	completed         int
	window, rawWindow time.Duration // the clients' wall time; for one caller, the summed op times
	attempted         int
	failures          []error
	fixed             []sim.Report // Reports of the fixed op list
	digests           []string     // digests of the fixed op list
	// parts holds further latencies by label, ms, printed as medians.
	parts, rawParts map[string][]float64
	// classWeight, when set, names the parts op_ms_p50 combines and each
	// one's share of the mix; otherwise op_ms_p50 is the median op.
	classWeight map[string]float64
	rt          runtimeStats
	speed       *hostSpeed
}

func (m *measurement) fail(op int, err error) {
	m.failures = append(m.failures, fmt.Errorf("op %d: %w", op, err))
}

// done records a completed op of raw latency d whose timed unit has the
// host speed correction scale.
func (m *measurement) done(d time.Duration, scale float64) {
	m.completed++
	m.lat = append(m.lat, ms(d)*scale)
	m.rawLat = append(m.rawLat, ms(d))
}

func (m *measurement) part(label string, d time.Duration, scale float64) {
	if m.parts == nil {
		m.parts, m.rawParts = map[string][]float64{}, map[string][]float64{}
	}
	m.parts[label] = append(m.parts[label], ms(d)*scale)
	m.rawParts[label] = append(m.rawParts[label], ms(d))
}

// p50 is op_ms_p50 over lat, or over parts by classWeight: the geometric
// mean of the classes' medians, weighted by their shares, over the
// classes that completed an op.
func (m *measurement) p50(lat []float64, parts map[string][]float64) float64 {
	if m.classWeight == nil {
		return median(lat)
	}
	var logs, weights float64
	for class, w := range m.classWeight {
		if xs := parts[class]; len(xs) > 0 {
			logs += w * math.Log(median(xs))
			weights += w
		}
	}
	return math.Exp(logs / weights)
}

// opSeed derives the search seed of part m of op i from the run seed, so
// every op solves fresh (model, seed) pairs and a run is a pure function
// of its seed.
func opSeed(seed int64, i, m int) int64 {
	return int64(splitmix(uint64(seed)^splitmix(uint64(i)<<8|uint64(m)))>>33) + 1
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func fingerprint(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// opOut is what one op produced.
type opOut struct {
	reports []sim.Report
	digests []string
	parts   []part // per-model solve latency within the op
}

type part struct {
	label string
	d     time.Duration
}

func sameReports(a, b []sim.Report) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d reports vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("report %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// seqOps is a single-caller workload whose op can also be replayed
// through the layers' public calls.
type seqOps interface {
	op(i int) (opOut, error)
	replay(i int, t *tracer) ([]sim.Report, error)
}

// seqSession drives a seqOps in a closed loop with one caller.
type seqSession struct{ seqOps }

func (seqSession) close() error { return nil }

func (s seqSession) measure(l limit, fixed int) (*measurement, error) {
	// The warm-up op is op 0 itself: lazy set-up finishes before timing,
	// and the measured op 0 repeats its inputs, so a repeated (model,
	// seed, batch) must reproduce the same digests.
	warm, err := s.op(0)
	if err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	m := &measurement{speed: newHostSpeed(3)}
	start := time.Now()
	for i := 0; l.more(i, fixed, time.Since(start), m.rawWindow); i++ {
		// Each op starts on a collected heap, as a one-shot compile or
		// sweep process does, so neither its time nor peak_rss_mb depends
		// on when the previous op's garbage happens to be collected.
		runtime.GC()
		rt0 := readRuntime()
		t0 := time.Now()
		out, err := s.op(i)
		d := time.Since(t0)
		m.rt = m.rt.add(readRuntime().sub(rt0))
		// The window counts op time only, not the calibration between ops.
		scale := m.speed.next(reps(d))
		m.window += scaled(d, scale)
		m.rawWindow += d
		m.attempted++
		if err == nil && i == 0 && !slices.Equal(warm.digests, out.digests) {
			err = fmt.Errorf("repeated op gave digests %v, first run %v", out.digests, warm.digests)
		}
		if err != nil {
			m.fail(i, err)
			continue
		}
		m.done(d, scale)
		if i < fixed {
			m.fixed = append(m.fixed, out.reports...)
			m.digests = append(m.digests, out.digests...)
		}
		for _, p := range out.parts {
			m.part(p.label, p.d, scale)
		}
	}
	return m, nil
}

func (s seqSession) trace(l limit, t *tracer) (*measurement, error) {
	if _, err := s.op(0); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	m := &measurement{}
	start := time.Now()
	var busy time.Duration
	for i := 0; l.more(i, 1, time.Since(start), busy); i++ {
		runtime.GC()
		rt0 := readRuntime()
		t0 := time.Now()
		out, err := s.op(i)
		du := time.Since(t0)
		t.agg.rt = t.agg.rt.add(readRuntime().sub(rt0))

		runtime.GC()
		t.beginOp(i)
		t1 := time.Now()
		replayed, rerr := s.replay(i, t)
		dt := time.Since(t1)
		t.endOp()

		busy += du + dt
		m.attempted++
		t.agg.ops++
		t.agg.untracedOps++
		t.agg.untracedTime += du
		t.agg.tracedTime += dt
		switch {
		case err != nil:
			m.fail(i, err)
		case rerr != nil:
			m.fail(i, fmt.Errorf("replay: %w", rerr))
		default:
			if err := sameReports(out.reports, replayed); err != nil {
				m.fail(i, fmt.Errorf("replay does not reproduce the op: %w", err))
			}
		}
	}
	if f, ok := s.seqOps.(interface{ finishTrace(*traceAgg) }); ok {
		f.finishTrace(t.agg)
	}
	return m, nil
}

// compile is an adflow-style one-shot compile: each op orchestrates every
// model of the list once, each with a fresh cost oracle, at default
// search knobs.
type compile struct {
	batch  int
	seed   int64
	names  []string
	graphs []*graph.Graph
	macs   []int64
	hw     sim.Config
	facts  hwFacts
}

func openCompile(names []string, batch int) func(int64, env) (session, error) {
	return func(seed int64, _ env) (session, error) {
		c := &compile{batch: batch, seed: seed, names: names, hw: atomicflow.DefaultHardware()}
		if err := c.hw.Validate(); err != nil {
			return nil, err
		}
		c.facts = factsOf(c.hw)
		for _, n := range names {
			g, err := atomicflow.LoadModel(n)
			if err != nil {
				return nil, err
			}
			c.graphs = append(c.graphs, g)
			c.macs = append(c.macs, modelMACs(g)*int64(batch))
		}
		return seqSession{c}, nil
	}
}

func (c *compile) op(i int) (opOut, error) {
	var out opOut
	for m, g := range c.graphs {
		hw := c.hw
		hw.Oracle = cost.Default()
		t0 := time.Now()
		sol, err := atomicflow.Orchestrate(g, atomicflow.Options{
			Batch: c.batch, Seed: opSeed(c.seed, i, m), Hardware: &hw,
		})
		d := time.Since(t0)
		if err == nil {
			err = checkReport(sol.Report, c.macs[m], c.facts)
		}
		if err != nil {
			return out, fmt.Errorf("%s: %w", c.names[m], err)
		}
		out.reports = append(out.reports, sol.Report)
		out.digests = append(out.digests, sol.Digest())
		out.parts = append(out.parts, part{"solve." + c.names[m], d})
	}
	return out, nil
}

// replay runs op i as atomicflow.Orchestrate does, one public call per
// layer: anneal.SA, atom.Build, schedule.Build, sim.Run.
func (c *compile) replay(i int, t *tracer) ([]sim.Report, error) {
	var reps []sim.Report
	for m, g := range c.graphs {
		orc, reg := t.oracle(), obs.New()
		hw := c.hw
		hw.Oracle, hw.Metrics, hw.Ctx = orc, reg, context.Background()
		var rep sim.Report
		var err error
		t.span("solve "+c.names[m], "other", -1, func(root int) {
			rep, err = solveTraced(t, root, g, c.batch, hw, anneal.Options{
				Seed: opSeed(c.seed, i, m), Oracle: orc, Ctx: hw.Ctx,
			}, schedule.DP)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.names[m], err)
		}
		t.agg.countOracle(orc)
		t.agg.countSim(reg, c.facts, rep)
		reps = append(reps, rep)
	}
	return reps, nil
}

// solveTraced is the atomic-dataflow pipeline as spans under root. The
// obs registry in hw.Metrics reaches only sim.Run, for its counts.
func solveTraced(t *tracer, root int, g *graph.Graph, batch int, hw sim.Config, aopt anneal.Options, mode schedule.Mode) (sim.Report, error) {
	var (
		res anneal.Result
		d   *atom.DAG
		s   *schedule.Schedule
		rep sim.Report
		err error
	)
	t.span("anneal.SA", "anneal", root, func(int) {
		res = anneal.SA(g, hw.Engine, hw.Dataflow, aopt)
	})
	t.span("atom.Build", "atom", root, func(int) { d, err = atom.Build(g, batch, res.Spec) })
	if err != nil {
		return rep, err
	}
	t.span("schedule.Build", "schedule", root, func(int) {
		s, err = schedule.Build(d, schedule.Options{
			Engines: hw.Mesh.Engines(), Mode: mode,
			EngineCfg: hw.Engine, Dataflow: hw.Dataflow, Oracle: hw.Oracle, Ctx: hw.Ctx,
		})
	})
	if err != nil {
		return rep, err
	}
	t.span("sim.Run", "sim", root, func(int) { rep, err = sim.Run(d, s, hw) })
	t.agg.count["anneal.iters"] += float64(res.Iters)
	for _, a := range d.Atoms {
		if a.Task.Kind != graph.OpInput {
			t.agg.count["atoms"]++
		}
	}
	t.agg.count["rounds"] += float64(s.NumRounds())
	return rep, err
}

// fig8Models is adexp's -fast workload set.
var fig8Models = []string{"vgg19", "resnet50", "inceptionv3", "efficientnet"}

// fig8 is one adexp Fig 8 sweep per op at adexp's defaults (Greedy
// scheduling, 400 SA iterations) with a fresh oracle and the seed varied
// per op.
type fig8 struct {
	seed   int64
	graphs []*graph.Graph
	macs   map[string]int64
	hw     sim.Config
	facts  hwFacts
}

func openFig8(seed int64, _ env) (session, error) {
	f := &fig8{seed: seed, macs: map[string]int64{}, hw: sim.DefaultConfig()}
	f.facts = factsOf(f.hw)
	// The sweep builds its own graphs; loading them here validates the
	// names before timing and gives the checks their MAC counts.
	for _, n := range fig8Models {
		g, err := atomicflow.LoadModel(n)
		if err != nil {
			return nil, err
		}
		f.graphs = append(f.graphs, g)
		f.macs[n] = modelMACs(g)
	}
	return seqSession{f}, nil
}

func (f *fig8) config(i int) experiments.Config {
	return experiments.Config{Workloads: fig8Models, SAIters: 400, Seed: opSeed(f.seed, i, 0), Mode: schedule.Greedy}
}

func (f *fig8) op(i int) (opOut, error) {
	var out opOut
	cfg := f.config(i)
	cfg.Oracle = cost.Default()
	rows, err := experiments.Fig8(cfg)
	if err != nil {
		return out, err
	}
	for _, r := range rows {
		if err := checkReport(r.Report, f.macs[r.Workload], f.facts); err != nil {
			return out, fmt.Errorf("%s/%s/%s: %w", r.Workload, r.Strategy, r.Dataflow, err)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s %s %s %+v", r.Workload, r.Strategy, r.Dataflow, r.Report)))
		out.reports = append(out.reports, r.Report)
		out.digests = append(out.digests, hex.EncodeToString(sum[:]))
	}
	return out, nil
}

// replay runs the sweep's (dataflow, model) points one after another,
// each as the sweep does: Layer-Sequential, IL-Pipe, then the atomic
// dataflow pipeline.
func (f *fig8) replay(i int, t *tracer) ([]sim.Report, error) {
	cfg := f.config(i)
	orc := t.oracle()
	var reps []sim.Report
	for _, df := range []engine.Dataflow{engine.KCPartition, engine.YXPartition} {
		for m, g := range f.graphs {
			hw := f.hw
			hw.Oracle, hw.Dataflow = orc, df
			var err error
			t.span(fmt.Sprintf("point %s %v", fig8Models[m], df), "other", -1, func(root int) {
				var ls, ilp, ad sim.Report
				t.span("atomicflow.RunLS", "baseline", root, func(int) { ls, err = atomicflow.RunLS(g, 1, hw) })
				if err != nil {
					return
				}
				t.span("atomicflow.RunILPipe", "baseline", root, func(int) { ilp, err = atomicflow.RunILPipe(g, 1, hw) })
				if err != nil {
					return
				}
				adHW := hw
				adHW.Metrics = obs.New()
				ad, err = solveTraced(t, root, g, 1, adHW, anneal.Options{
					MaxIters: cfg.SAIters, Seed: cfg.Seed, Oracle: orc,
				}, cfg.Mode)
				t.agg.countSim(adHW.Metrics, f.facts, ad)
				reps = append(reps, ls, ilp, ad)
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", fig8Models[m], df, err)
			}
		}
	}
	t.agg.countOracle(orc)
	return reps, nil
}

// finishTrace sets the sweep's parallel efficiency: the summed sequential
// stage time over the worker count times the untraced sweep wall time.
func (f *fig8) finishTrace(a *traceAgg) {
	var stages time.Duration
	for _, l := range []string{"anneal", "cost", "atom", "schedule", "sim", "baseline"} {
		stages += a.self[l]
	}
	workers := min(runtime.GOMAXPROCS(0), 2*len(fig8Models))
	a.set["experiments.parallel_eff"] = div(float64(stages), float64(workers)*float64(a.untracedTime))
}
