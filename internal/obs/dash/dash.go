// Package dash is the serving layer's live-observability store: a
// bounded in-memory record of what the fleet is doing right now and what
// it just did, plus the HTTP surface (see http.go) that renders it as an
// embedded web dashboard, JSON snapshots and a server-sent-event stream.
//
// Three bounded structures, all guarded by one mutex:
//
//   - an event ring: typed, sequence-numbered events (request admitted /
//     dedup-joined / cached / rejected, solve started / finished /
//     failed, chain exchanges, surrogate gate flips, store hits, warm
//     starts), fanned out to SSE subscribers as they are published;
//   - an active-solve store: per in-flight solve, the request identity
//     and a per-chain series of (iteration, temperature, best energy)
//     samples fed by the annealer's progress hook;
//   - a session history ring: final digests and timings of recently
//     finished solves.
//
// Everything is observation-only and bounded: publishing costs a ring
// append plus a non-blocking send per subscriber, per-chain series are
// decimated in place once they hit their cap, and a slow SSE client
// loses events rather than ever back-pressuring a solve.
package dash

import (
	"sync"
	"time"
)

// EventType tags one dashboard event.
type EventType string

// The event vocabulary. Request-stage events carry the request's short
// key; solve-stage events carry the solve id (the same short key).
const (
	EvAdmitted  EventType = "request_admitted"     // queued for a worker
	EvDedup     EventType = "request_dedup_joined" // joined an identical in-flight solve
	EvCached    EventType = "request_cached"       // answered from the solution cache
	EvRejected  EventType = "request_rejected"     // shed by queue backpressure
	EvStarted   EventType = "solve_started"        // worker began the search
	EvFinished  EventType = "solve_finished"       // solution produced
	EvFailed    EventType = "solve_failed"         // search errored or was abandoned
	EvExchange  EventType = "chain_exchange"       // annealing portfolio barrier
	EvSurrogate EventType = "surrogate_gate"       // learned-oracle readiness flipped
	EvStoreHit  EventType = "request_store_hit"    // answered from the persistent store
	EvWarmStart EventType = "solve_warm_started"   // search seeded from a stored donor
)

// Event is one dashboard event. Seq increases by one per published
// event, so SSE clients can detect gaps after reconnecting.
type Event struct {
	Seq    uint64    `json:"seq"`
	TimeMS int64     `json:"time_ms"` // unix milliseconds
	Type   EventType `json:"type"`
	Solve  string    `json:"solve,omitempty"` // short request key
	Model  string    `json:"model,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// ChainPoint is one recorded progress sample of one annealing chain.
type ChainPoint struct {
	Iter   int     `json:"iter"`
	Temp   float64 `json:"temp"`
	BestE  float64 `json:"best_e"`
	BestCV float64 `json:"best_cv"`
}

// ChainSample is one chain's progress observation as delivered by the
// search hook; the store appends it to the solve's per-chain series.
type ChainSample struct {
	Chain   int
	Iters   int
	Temp    float64
	BestE   float64
	BestCV  float64
	Adopted bool // adopted the global best at this barrier
}

// Session is one finished solve in the history ring.
type Session struct {
	ID      string  `json:"id"`
	Model   string  `json:"model"`
	Chains  int     `json:"chains"`
	StartMS int64   `json:"start_ms"`
	DurMS   int64   `json:"dur_ms"`
	Digest  string  `json:"digest,omitempty"`
	Error   string  `json:"error,omitempty"`
	Rounds  int     `json:"rounds,omitempty"`
	Atoms   int     `json:"atoms,omitempty"`
	FinalCV float64 `json:"final_cv,omitempty"`
}

// ActiveSnapshot is one in-flight solve as exported by State.
type ActiveSnapshot struct {
	ID        string         `json:"id"`
	Model     string         `json:"model"`
	Chains    int            `json:"chains"`
	StartMS   int64          `json:"start_ms"`
	ElapsedMS int64          `json:"elapsed_ms"`
	Exchanges int64          `json:"exchanges"` // barrier adoptions so far
	BestE     float64        `json:"best_e"`
	BestCV    float64        `json:"best_cv"`
	Series    [][]ChainPoint `json:"series"` // per-chain sample series
}

// State is the /debug/dash/state.json snapshot: the in-flight solves
// plus the newest event sequence number (so a poller can tell whether it
// missed events without holding an SSE connection).
type State struct {
	NowMS   int64            `json:"now_ms"`
	LastSeq uint64           `json:"last_seq"`
	Active  []ActiveSnapshot `json:"active"`
}

// Config bounds the store. Zero values select the defaults.
type Config struct {
	EventCap   int // event ring capacity (default 512)
	HistoryCap int // session history capacity (default 64)
	PointCap   int // per-chain sample cap before decimation (default 256)
}

func (c Config) eventCap() int {
	if c.EventCap > 0 {
		return c.EventCap
	}
	return 512
}

func (c Config) historyCap() int {
	if c.HistoryCap > 0 {
		return c.HistoryCap
	}
	return 64
}

func (c Config) pointCap() int {
	if c.PointCap > 0 {
		return c.PointCap
	}
	return 256
}

// chainSeries is one chain's bounded sample trail. When the series hits
// its cap it halves its own resolution: every other retained point is
// dropped and the recording stride doubles, so memory stays bounded
// while the trajectory keeps its full extent (start to now) at
// progressively coarser sampling — exactly what a sparkline wants.
type chainSeries struct {
	pts    []ChainPoint
	stride int // record every stride-th offered sample
	tick   int
}

func (cs *chainSeries) add(p ChainPoint, max int) {
	if cs.stride == 0 {
		cs.stride = 1
	}
	cs.tick++
	if (cs.tick-1)%cs.stride != 0 {
		return
	}
	cs.pts = append(cs.pts, p)
	if len(cs.pts) >= max {
		kept := cs.pts[:0]
		for i := 0; i < len(cs.pts); i += 2 {
			kept = append(kept, cs.pts[i])
		}
		cs.pts = kept
		cs.stride *= 2
	}
}

type activeSolve struct {
	id        string
	model     string
	chains    int
	startMS   int64
	exchanges int64
	series    []chainSeries
}

// subscriber is one attached SSE client. Publishing never blocks: a full
// channel drops the event for that client only (dashboards want the
// present, not guaranteed delivery — gaps are visible in Seq).
type subscriber struct {
	ch chan Event
}

// Store holds the fleet's live observability state. Safe for concurrent
// use; the zero value is not usable — construct with NewStore.
type Store struct {
	cfg Config

	mu     sync.Mutex
	seq    uint64
	events []Event // ring, events[(head+i)%cap] for i < n
	head   int
	n      int
	subs   map[*subscriber]struct{}
	active map[string]*activeSolve
	order  []string // active solve ids, insertion-ordered
	hist   []Session
	hHead  int
	hN     int
}

// NewStore builds an empty store.
func NewStore(cfg Config) *Store {
	return &Store{
		cfg:    cfg,
		events: make([]Event, cfg.eventCap()),
		subs:   make(map[*subscriber]struct{}),
		active: make(map[string]*activeSolve),
		hist:   make([]Session, cfg.historyCap()),
	}
}

func nowMS() int64 { return time.Now().UnixMilli() }

// Publish appends a typed event to the ring and fans it out to every
// subscriber (non-blocking: slow clients lose events, never stall the
// producer). Returns the event's sequence number.
func (s *Store) Publish(t EventType, solve, model, detail string) uint64 {
	s.mu.Lock()
	s.seq++
	ev := Event{Seq: s.seq, TimeMS: nowMS(), Type: t, Solve: solve, Model: model, Detail: detail}
	if s.n < len(s.events) {
		s.events[(s.head+s.n)%len(s.events)] = ev
		s.n++
	} else {
		s.events[s.head] = ev
		s.head = (s.head + 1) % len(s.events)
	}
	for sub := range s.subs {
		select {
		case sub.ch <- ev:
		default:
		}
	}
	s.mu.Unlock()
	return ev.Seq
}

// Recent returns up to max of the newest events, oldest first (all
// retained events when max <= 0).
func (s *Store) Recent(max int) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.n
	if max > 0 && n > max {
		n = max
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		out[i] = s.events[(s.head+s.n-n+i)%len(s.events)]
	}
	return out
}

// Subscribe attaches an event listener with the given channel buffer
// (default 64) and returns the channel plus a cancel function. After
// cancel returns, nothing more is sent and the channel is closed.
func (s *Store) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 64
	}
	sub := &subscriber{ch: make(chan Event, buf)}
	s.mu.Lock()
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		if _, ok := s.subs[sub]; ok {
			delete(s.subs, sub)
			close(sub.ch)
		}
		s.mu.Unlock()
	}
	return sub.ch, cancel
}

// Subscribers reports the attached SSE client count (leak checks).
func (s *Store) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// SolveStarted registers an in-flight solve and publishes EvStarted. A
// restarted id (same request solved again after an abandonment) resets
// its series.
func (s *Store) SolveStarted(id, model string, chains int) {
	if chains < 1 {
		chains = 1
	}
	s.mu.Lock()
	if _, ok := s.active[id]; !ok {
		s.order = append(s.order, id)
	}
	s.active[id] = &activeSolve{
		id: id, model: model, chains: chains,
		startMS: nowMS(),
		series:  make([]chainSeries, chains),
	}
	s.mu.Unlock()
	s.Publish(EvStarted, id, model, "")
}

// SolveProgress appends one barrier's chain samples to the solve's
// series. Unknown ids are ignored (the solve may have been evicted).
func (s *Store) SolveProgress(id string, samples []ChainSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.active[id]
	if a == nil {
		return
	}
	for _, sm := range samples {
		if sm.Chain < 0 {
			continue
		}
		for sm.Chain >= len(a.series) {
			// The GA slot (or a widened portfolio) appears lazily.
			a.series = append(a.series, chainSeries{})
		}
		a.series[sm.Chain].add(ChainPoint{
			Iter: sm.Iters, Temp: sm.Temp, BestE: sm.BestE, BestCV: sm.BestCV,
		}, s.cfg.pointCap())
		if sm.Adopted {
			a.exchanges++
		}
	}
}

// SolveFinished retires an active solve into the history ring and
// publishes EvFinished (or EvFailed when sess.Error is set). The solve
// id is taken from sess.ID; StartMS and DurMS are filled from the active
// record when zero.
func (s *Store) SolveFinished(sess Session) {
	s.mu.Lock()
	if a := s.active[sess.ID]; a != nil {
		if sess.StartMS == 0 {
			sess.StartMS = a.startMS
		}
		if sess.DurMS == 0 {
			sess.DurMS = nowMS() - a.startMS
		}
		if sess.Chains == 0 {
			sess.Chains = a.chains
		}
		if sess.Model == "" {
			sess.Model = a.model
		}
		delete(s.active, sess.ID)
		for i, id := range s.order {
			if id == sess.ID {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	if s.hN < len(s.hist) {
		s.hist[(s.hHead+s.hN)%len(s.hist)] = sess
		s.hN++
	} else {
		s.hist[s.hHead] = sess
		s.hHead = (s.hHead + 1) % len(s.hist)
	}
	s.mu.Unlock()
	t, detail := EvFinished, sess.Digest
	if sess.Error != "" {
		t, detail = EvFailed, sess.Error
	}
	s.Publish(t, sess.ID, sess.Model, detail)
}

// StateSnapshot copies the in-flight solves (insertion order).
func (s *Store) StateSnapshot() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := nowMS()
	st := State{NowMS: now, LastSeq: s.seq, Active: make([]ActiveSnapshot, 0, len(s.active))}
	for _, id := range s.order {
		a := s.active[id]
		if a == nil {
			continue
		}
		snap := ActiveSnapshot{
			ID: a.id, Model: a.model, Chains: a.chains,
			StartMS: a.startMS, ElapsedMS: now - a.startMS,
			Exchanges: a.exchanges,
			Series:    make([][]ChainPoint, len(a.series)),
		}
		first := true
		for i := range a.series {
			snap.Series[i] = append([]ChainPoint(nil), a.series[i].pts...)
			if n := len(a.series[i].pts); n > 0 {
				last := a.series[i].pts[n-1]
				if first || last.BestE < snap.BestE {
					snap.BestE, snap.BestCV = last.BestE, last.BestCV
					first = false
				}
			}
		}
		st.Active = append(st.Active, snap)
	}
	return st
}

// Sessions returns the history ring, newest first.
func (s *Store) Sessions() []Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Session, s.hN)
	for i := 0; i < s.hN; i++ {
		out[i] = s.hist[(s.hHead+s.hN-1-i)%len(s.hist)]
	}
	return out
}
