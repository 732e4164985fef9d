// Package cost is the central cost oracle: the layer between the
// search/scheduling code and the engine model. The paper's Algorithm 1
// treats the engine model as a black-box Cycle(atom) oracle; every
// consumer (annealer, schedulers, baselines) prices atoms through an
// Oracle instead of calling engine.Evaluate directly, so one counting
// oracle can span candidate generation, annealing and scheduling of a
// workload and a test can substitute its own. The simulator reads the
// prices the schedule carries.
//
// The engine model is closed-form: pricing an atom costs about as much as
// a map lookup, so production stacks call it directly (DESIGN §3 records
// the measurement that retired the evaluation cache):
//
//   - Direct: the adapter over engine.Evaluate.
//   - Instrumented: a wrapper counting the evaluations flowing through it.
//   - Memo: a cache no production stack uses (see its doc comment).
//
// Default builds Instrumented(Direct); Or(nil) is Direct.
package cost

import (
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

// key is the comparable cache identity of one evaluation. Config, Dataflow
// and Task are flat scalar structs, so the triple is directly usable as a
// map key and two keys are equal exactly when the evaluations are.
type key struct {
	cfg  engine.Config
	df   engine.Dataflow
	task engine.Task
}

// Memo is a memoizing Oracle: results of the inner oracle are cached
// forever (the engine model is pure, so entries never invalidate), and
// hits and misses are counted. Safe for concurrent use; goroutines that
// miss the same key at once each evaluate it and count a miss.
//
// No production stack uses Memo: a hit costs more than the engine-model
// evaluation it saves. It stays only because the benchmark's tracer
// (bench/trace.go) wraps its timed oracle in NewMemo so that only first
// evaluations of a key are timed.
type Memo struct {
	inner  Oracle
	mu     sync.RWMutex
	m      map[key]engine.Cost
	hits   atomic.Int64
	misses atomic.Int64
}

// NewMemo returns a memoizing oracle over inner (Direct{} if nil).
func NewMemo(inner Oracle) *Memo {
	if inner == nil {
		inner = Direct{}
	}
	return &Memo{inner: inner, m: make(map[key]engine.Cost)}
}

// Evaluate returns the cached cost, computing and storing it on first use.
func (m *Memo) Evaluate(cfg engine.Config, df engine.Dataflow, t engine.Task) engine.Cost {
	k := key{cfg: cfg, df: df, task: t}
	m.mu.RLock()
	c, ok := m.m[k]
	m.mu.RUnlock()
	if ok {
		m.hits.Add(1)
		return c
	}
	m.misses.Add(1)
	c = m.inner.Evaluate(cfg, df, t)
	m.mu.Lock()
	m.m[k] = c
	m.mu.Unlock()
	return c
}

// Stats reports the cache behaviour so far.
func (m *Memo) Stats() Stats {
	h, mi := m.hits.Load(), m.misses.Load()
	return Stats{Evaluations: h + mi, Hits: h, Misses: mi}
}

// Stats is one observability snapshot of an oracle stack.
type Stats struct {
	Evaluations int64 // Oracle.Evaluate calls observed
	Hits        int64 // served from a Memo cache (0 without a Memo)
	Misses      int64 // passed through a Memo to its inner oracle (0 without a Memo)
}

// Sub returns the delta since an earlier snapshot — per-experiment
// accounting over a long-lived shared oracle.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Evaluations: s.Evaluations - prev.Evaluations,
		Hits:        s.Hits - prev.Hits,
		Misses:      s.Misses - prev.Misses,
	}
}

// Instrumented counts the evaluations flowing through an oracle. When the
// wrapped oracle is a *Memo, Stats also reports its hits and misses.
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

// Stats reports calls seen plus a wrapped Memo's cache behaviour.
func (i *Instrumented) Stats() Stats {
	st := Stats{Evaluations: i.calls.Load()}
	if m, ok := i.inner.(*Memo); ok {
		ms := m.Stats()
		st.Hits, st.Misses = ms.Hits, ms.Misses
	}
	return st
}

// Default returns the production stack: the engine model with an
// evaluation counter.
func Default() *Instrumented { return NewInstrumented(Direct{}) }

// Or returns o when non-nil, else Direct{} — the resolution every
// consumer applies to its optional Oracle field. Pass one Default()
// oracle across stages to count a whole run's evaluations.
func Or(o Oracle) Oracle {
	if o != nil {
		return o
	}
	return Direct{}
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
