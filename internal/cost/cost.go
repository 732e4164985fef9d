// Package cost is the central cost oracle: the layer between the
// search/scheduling code and the engine model. The paper's Algorithm 1
// treats the engine model as a black-box Cycle(atom) oracle; MAESTRO-style
// analytical oracles are cheap and repeatable, and atoms produced by the
// same layer partition are identical tasks evaluated thousands of times
// per SA run — so every consumer (annealer, schedulers, baselines) goes
// through an Oracle instead of calling engine.Evaluate directly, and one
// shared memoizing oracle spans candidate generation, annealing and
// scheduling of the same workload. The simulator reads the prices the
// schedule carries.
//
// Three stacked implementations are provided:
//
//   - Direct: the no-op adapter over engine.Evaluate.
//   - Memo: a sharded, mutex-striped cache keyed by the comparable
//     (engine.Config, engine.Dataflow, engine.Task) triple, safe for
//     concurrent use.
//   - Instrumented: a wrapper counting evaluations (and, when it wraps a
//     Memo, cache hits and misses) for observability.
//
// The conventional stack is Instrumented(Memo(Direct)), built by Default.
package cost

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/atomic-dataflow/atomicflow/internal/engine"
)

// Oracle prices a task on an engine under a dataflow — the Cycle() oracle
// of the paper's Algorithm 1. Implementations must be safe for concurrent
// use by multiple goroutines.
type Oracle interface {
	Evaluate(cfg engine.Config, df engine.Dataflow, t engine.Task) engine.Cost
}

// Direct adapts engine.Evaluate with no caching. The engine model is a
// pure function, so the zero value is ready to use and trivially
// goroutine-safe.
type Direct struct{}

// Evaluate calls the engine model directly.
func (Direct) Evaluate(cfg engine.Config, df engine.Dataflow, t engine.Task) engine.Cost {
	return engine.Evaluate(cfg, df, t)
}

// Key is the comparable cache identity of one evaluation. Config, Dataflow
// and Task are flat scalar structs, so the triple is directly usable as a
// map key and two keys are equal exactly when the evaluations are.
type Key struct {
	Cfg  engine.Config
	DF   engine.Dataflow
	Task engine.Task
}

// numShards stripes the cache so concurrent candidate generation and
// simulation do not serialize on one lock. Power of two for cheap masking.
const numShards = 64

type shard struct {
	mu       sync.RWMutex
	m        map[Key]engine.Cost
	inflight map[Key]*inflightCall
}

// inflightCall is one first-miss evaluation in progress. Duplicate
// concurrent misses of the same Key park on done instead of re-running
// the engine model; the leader publishes c (or the panic it hit) before
// closing done, so joiners observe a fully-written result.
type inflightCall struct {
	done     chan struct{}
	c        engine.Cost
	panicked any
}

// Memo is a memoizing Oracle: results of the inner oracle are cached
// forever (the engine model is pure, so entries never invalidate). Safe
// for concurrent use.
type Memo struct {
	inner  Oracle
	shards [numShards]shard
	hits   atomic.Int64
	misses atomic.Int64
	dedups atomic.Int64
}

// NewMemo returns a memoizing oracle over inner (Direct{} if nil).
func NewMemo(inner Oracle) *Memo {
	if inner == nil {
		inner = Direct{}
	}
	m := &Memo{inner: inner}
	for i := range m.shards {
		m.shards[i].m = make(map[Key]engine.Cost)
		m.shards[i].inflight = make(map[Key]*inflightCall)
	}
	return m
}

// Evaluate returns the cached cost, computing and storing it on first use.
// Concurrent duplicate misses are deduplicated per key (a lightweight
// shard-local singleflight): the first caller evaluates, the rest join its
// result — K portfolio chains hitting the same fresh Key cost one engine
// evaluation, not K. Joins are counted separately in Stats.
func (m *Memo) Evaluate(cfg engine.Config, df engine.Dataflow, t engine.Task) engine.Cost {
	k := Key{Cfg: cfg, DF: df, Task: t}
	sh := &m.shards[shardOf(k)]
	sh.mu.RLock()
	c, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		m.hits.Add(1)
		return c
	}
	sh.mu.Lock()
	if c, ok := sh.m[k]; ok {
		sh.mu.Unlock()
		m.hits.Add(1)
		return c
	}
	if call, ok := sh.inflight[k]; ok {
		sh.mu.Unlock()
		m.dedups.Add(1)
		<-call.done
		if call.panicked != nil {
			panic(call.panicked)
		}
		return call.c
	}
	call := &inflightCall{done: make(chan struct{})}
	sh.inflight[k] = call
	sh.mu.Unlock()
	m.misses.Add(1)
	defer func() {
		if r := recover(); r != nil {
			// Unregister and wake joiners with the same panic value so a
			// failing engine model cannot strand them on done forever.
			call.panicked = r
			sh.mu.Lock()
			delete(sh.inflight, k)
			sh.mu.Unlock()
			close(call.done)
			panic(r)
		}
	}()
	c = m.inner.Evaluate(cfg, df, t)
	call.c = c
	sh.mu.Lock()
	sh.m[k] = c
	delete(sh.inflight, k)
	sh.mu.Unlock()
	close(call.done)
	return c
}

// Len returns the number of cached entries.
func (m *Memo) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Stats reports the cache behaviour so far.
func (m *Memo) Stats() Stats {
	h, mi, d := m.hits.Load(), m.misses.Load(), m.dedups.Load()
	return Stats{Evaluations: h + mi + d, Hits: h, Misses: mi, Dedups: d}
}

// shardOf mixes the task-varying key fields into a shard index. Only the
// fields that differ between tasks of one run matter for spread; the
// engine config is typically constant.
func shardOf(k Key) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	mix := func(v int64) {
		h ^= uint64(v)
		h *= 1099511628211 // FNV-64 prime
	}
	mix(int64(k.Task.Kind))
	mix(int64(k.Task.Hp))
	mix(int64(k.Task.Wp))
	mix(int64(k.Task.Ci))
	mix(int64(k.Task.Cop))
	mix(int64(k.Task.Kh))
	mix(int64(k.Task.Kw))
	mix(int64(k.Task.Stride))
	mix(int64(k.Task.Replicas))
	mix(int64(k.DF))
	mix(int64(k.Cfg.PEx))
	mix(int64(k.Cfg.PEy))
	return h % numShards
}

// Stats is one observability snapshot of an oracle stack.
type Stats struct {
	Evaluations int64 // Oracle.Evaluate calls observed
	Hits        int64 // served from a Memo cache
	Misses      int64 // computed by the engine model
	Dedups      int64 // concurrent duplicate misses joined to an in-flight evaluation
}

// HitRate returns Hits/(Hits+Misses), 0 when nothing was evaluated.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Sub returns the delta since an earlier snapshot — per-experiment
// accounting over a long-lived shared oracle.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Evaluations: s.Evaluations - prev.Evaluations,
		Hits:        s.Hits - prev.Hits,
		Misses:      s.Misses - prev.Misses,
		Dedups:      s.Dedups - prev.Dedups,
	}
}

// String formats the snapshot for logs. Dedup joins only appear once one
// happened, so single-threaded logs keep their familiar shape.
func (s Stats) String() string {
	if s.Dedups > 0 {
		return fmt.Sprintf("%d evaluations (%d hits, %d misses, %d dedup joins, %.1f%% hit-rate)",
			s.Evaluations, s.Hits, s.Misses, s.Dedups, 100*s.HitRate())
	}
	return fmt.Sprintf("%d evaluations (%d hits, %d misses, %.1f%% hit-rate)",
		s.Evaluations, s.Hits, s.Misses, 100*s.HitRate())
}

// Instrumented counts the evaluations flowing through an oracle. When the
// wrapped oracle is a *Memo, Stats also reports its hits and misses, so
// the conventional Instrumented(Memo(Direct)) stack yields the full
// evaluations/hits/misses triple.
type Instrumented struct {
	inner Oracle
	calls atomic.Int64
}

// NewInstrumented wraps inner (Direct{} if nil) with call counting.
func NewInstrumented(inner Oracle) *Instrumented {
	if inner == nil {
		inner = Direct{}
	}
	return &Instrumented{inner: inner}
}

// Evaluate counts the call and delegates.
func (i *Instrumented) Evaluate(cfg engine.Config, df engine.Dataflow, t engine.Task) engine.Cost {
	i.calls.Add(1)
	return i.inner.Evaluate(cfg, df, t)
}

// Stats reports calls seen plus the wrapped Memo's cache behaviour.
func (i *Instrumented) Stats() Stats {
	st := Stats{Evaluations: i.calls.Load()}
	if m, ok := i.inner.(*Memo); ok {
		ms := m.Stats()
		st.Hits, st.Misses, st.Dedups = ms.Hits, ms.Misses, ms.Dedups
	}
	return st
}

// Len reports the wrapped Memo's cached-entry count (0 for a non-Memo
// inner oracle) — production cache-size visibility for consumers holding
// the Default() stack.
func (i *Instrumented) Len() int {
	if m, ok := i.inner.(*Memo); ok {
		return m.Len()
	}
	return 0
}

// Default returns the conventional full stack: an instrumented memoizing
// oracle over the engine model.
func Default() *Instrumented { return NewInstrumented(NewMemo(Direct{})) }

// Or returns o when non-nil, else a fresh memoized oracle — the resolution
// every consumer applies to its optional Oracle field. A nil oracle still
// caches within the consuming stage; passing one shared oracle across
// stages is what makes the cache span candidate generation, annealing,
// scheduling and simulation.
//
// Note the deliberate asymmetry with Default(): the fallback is a bare
// *Memo, not Instrumented(Memo(...)) — a per-stage fallback cache nobody
// holds a handle to has no reader for an extra call counter, so the
// cheaper stack wins. The fallback is still fully Stats()-capable
// ((*Memo).Stats reports the evaluations/hits/misses/dedups it saw), and
// StatsOf retrieves those counters uniformly from either stack, so
// per-stage accounting works even for consumers that passed nil.
func Or(o Oracle) Oracle {
	if o != nil {
		return o
	}
	return NewMemo(Direct{})
}

// StatsOf extracts the counters from any oracle that keeps them (*Memo,
// *Instrumented, or any custom oracle with a Stats() method), reporting
// ok=false for stat-less oracles like Direct. This is the uniform
// accounting path over the Default(), Or(nil) and user-supplied stacks.
func StatsOf(o Oracle) (Stats, bool) {
	type statser interface{ Stats() Stats }
	if s, ok := o.(statser); ok {
		return s.Stats(), true
	}
	return Stats{}, false
}
