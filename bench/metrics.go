package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root declares the same names, units and directions plus the
// regression bounds; bench_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload. An "op" is one unit of the workload's
// closed loop: a compile of each model in the workload's list, one /solve
// request, or one Fig 8 sweep.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"sim_cycles_gmean", "cycles", "lower"},
	{"sim_energy_mj_gmean", "mJ", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
}

// exact names the end-to-end metrics that are pure functions of the seed:
// they cover only the fixed op list. -compare compares them seed by seed
// and reports any difference.
var exact = map[string]bool{"sim_cycles_gmean": true, "sim_energy_mj_gmean": true}

// perLayer are the traced run's metrics, one group per module. A layer a
// workload does not exercise reports 0 there.
var perLayer = []metricDef{
	{"serve.canon_us_p50", "us", "lower"},
	{"serve.handler_hit_us_p50", "us", "lower"},
	{"serve.transport_hit_us_p50", "us", "lower"},
	{"serve.queue_wait_ms_mean", "ms", "lower"},
	{"serve.solve_ms_mean", "ms", "lower"},
	{"serve.hit_ratio", "frac", "higher"},
	{"serve.resp_bytes_mean", "bytes", "lower"},
	{"serve.share", "frac", "lower"},
	{"serve.solve_share", "frac", "lower"},
	{"serve.transport_share", "frac", "lower"},
	{"anneal.self_ms_per_op", "ms", "lower"},
	{"anneal.share", "frac", "lower"},
	{"anneal.iters_per_op", "count", "lower"},
	{"cost.exact_evals_per_op", "count", "lower"},
	{"cost.exact_ms_per_op", "ms", "lower"},
	{"cost.hit_rate", "frac", "higher"},
	{"cost.share", "frac", "lower"},
	{"atom.self_ms_per_op", "ms", "lower"},
	{"atom.share", "frac", "lower"},
	{"atom.atoms_per_op", "count", "lower"},
	{"schedule.self_ms_per_op", "ms", "lower"},
	{"schedule.share", "frac", "lower"},
	{"schedule.rounds_per_op", "count", "lower"},
	{"sim.self_ms_per_op", "ms", "lower"},
	{"sim.share", "frac", "lower"},
	{"sim.us_per_round", "us", "lower"},
	{"sim.pipeline_stalls_per_op", "count", "lower"},
	{"mapping.permutations_per_op", "count", "lower"},
	{"noc.flows_per_op", "count", "lower"},
	{"dram.requests_per_op", "count", "lower"},
	{"buffer.evictions_per_op", "count", "lower"},
	{"sim.noc_blocked_frac", "frac", "lower"},
	{"sim.dram_blocked_frac", "frac", "lower"},
	{"sim.compute_util", "frac", "higher"},
	{"baseline.self_ms_per_op", "ms", "lower"},
	{"baseline.share", "frac", "lower"},
	{"experiments.parallel_eff", "frac", "higher"},
	{"gc.cpu_share", "frac", "lower"},
	{"gc.cycles_per_op", "count", "lower"},
	{"other.share", "frac", "lower"},
}

// shares maps each layer whose self time partitions a traced op's wall
// time to its share metric; other.share is what none of them covers.
var shares = []struct{ layer, metric string }{
	{"serve", "serve.share"},
	{"serve.solve", "serve.solve_share"},
	{"serve.transport", "serve.transport_share"},
	{"anneal", "anneal.share"},
	{"cost", "cost.share"},
	{"atom", "atom.share"},
	{"schedule", "schedule.share"},
	{"sim", "sim.share"},
	{"baseline", "baseline.share"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints as its last
// line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// project keeps exactly the declared metrics, failing if one was not
// measured.
func project(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (numpy's default).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// gmean is the geometric mean of positive values.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// tailLabel names the highest percentile with at least ten samples
// beyond it, or "" when there are too few samples for any.
func tailLabel(n int) (string, float64) {
	switch {
	case n >= 1000:
		return "p99", 0.99
	case n >= 100:
		return "p90", 0.90
	}
	return "", 0
}

// Shared hosts drift in speed by ±20% from one second to the next, far
// more than the regression bounds. A run therefore times a fixed
// calibration kernel between its timed units (an op, or a one-second
// slice of serve-mixed traffic) and reports every end-to-end time at the
// reference host speed: each unit's raw time × refCalibrationMS / the
// mean of the kernel's medians just before and just after it. The kernel
// depends on nothing in this repository, so a faster program still reads
// faster. Raw times are printed beside.

// refCalibrationMS is the kernel's median time on the reference host, a
// 2-vCPU 2 GHz Xeon VM.
const refCalibrationMS = 7.0

var calibrationSink int

// calibrationKernel sorts 64K random words and builds and probes a 16K
// entry map: allocation- and cache-bound work like the solver's.
func calibrationKernel() {
	r := rand.New(rand.NewSource(1))
	s := make([]uint64, 1<<16)
	m := make(map[uint64]int, 1<<14)
	for i := range s {
		s[i] = r.Uint64()
		if i < 1<<14 {
			m[s[i]] = i
		}
	}
	slices.Sort(s)
	n := 0
	for _, v := range s[:1<<14] {
		n += m[v]
	}
	calibrationSink += n
}

// calibrate returns the median of n timings of the kernel in ms.
func calibrate(n int) float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		calibrationKernel()
		out[i] = float64(time.Since(t0)) / 1e6
	}
	return median(out)
}

// hostSpeed tracks the calibration kernel between timed units.
type hostSpeed struct {
	last   float64   // the kernel's latest median, ms
	scales []float64 // the correction of every unit so far
}

func newHostSpeed(n int) *hostSpeed { return &hostSpeed{last: calibrate(n)} }

// next times the kernel n times after a unit and returns the factor that
// brings the unit's time to the reference host speed.
func (h *hostSpeed) next(n int) float64 {
	c := calibrate(n)
	scale := refCalibrationMS / ((h.last + c) / 2)
	h.last = c
	h.scales = append(h.scales, scale)
	return scale
}

// reps is how many kernel runs follow a unit of length d: one, and one
// more for every 2% of d they would take.
func reps(d time.Duration) int {
	return 1 + int(d/(50*refCalibrationMS*time.Millisecond))
}

func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// runtimeStats is a reading of the Go runtime's allocation, GC and CPU
// accounting.
type runtimeStats struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles,
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeStats) add(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles,
		a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
