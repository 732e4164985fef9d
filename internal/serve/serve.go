// Package serve is the orchestration-as-a-service layer: a stdlib-only
// HTTP server that accepts workload graphs (the internal/modelio JSON
// format) plus a hardware spec and returns the full atomic-dataflow
// solution — schedule, mapping-derived Report, predicted cycles/energy
// and an optional execution trace.
//
// The serving pipeline is built from four pieces, in request order:
//
//   - a solution cache keyed by the canonical (graph digest, config
//     digest, seed) triple, so repeat queries cost a map lookup;
//   - singleflight deduplication, so N concurrent identical requests run
//     the search once and all receive bit-identical bytes;
//   - a bounded admission queue with backpressure — when the queue is
//     full /solve answers 429 with Retry-After instead of absorbing
//     unbounded work;
//   - a fixed worker pool running the anneal → schedule → map → simulate
//     pipeline through the public atomicflow facade, with per-request
//     deadlines threaded as context.Context into the search itself.
//
// Orchestration is deterministic for a fixed request (pinned by the
// cross-zoo determinism matrix), which is what makes caching and
// deduplication sound: a solution is a pure function of its key.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	atomicflow "github.com/atomic-dataflow/atomicflow"
	"github.com/atomic-dataflow/atomicflow/internal/cost"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/obs/dash"
	"github.com/atomic-dataflow/atomicflow/internal/schedule"
	"github.com/atomic-dataflow/atomicflow/internal/store"
)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// Workers is the solve worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue; a full queue answers 429
	// (default 64).
	QueueDepth int
	// CacheEntries bounds the LRU solution cache (default 256).
	CacheEntries int
	// RequestTimeout is the per-request deadline, also the cap for
	// request-supplied timeout_ms (default 2m).
	RequestTimeout time.Duration
	// Store, when non-nil, persists every finished solve: repeat
	// requests after a restart are served the stored bytes without
	// re-solving, and warm-start requests seed their search from the
	// best related record (same graph, different key). The caller owns
	// the store's directory.
	Store *store.Store
	// Hardware is the base accelerator model requests override (default
	// atomicflow.DefaultHardware).
	Hardware *atomicflow.HardwareConfig
	// Metrics receives the serving metrics and is exported at /metrics
	// (default: a fresh registry).
	Metrics *obs.Registry
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) cacheEntries() int {
	if c.CacheEntries > 0 {
		return c.CacheEntries
	}
	return 256
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return 2 * time.Minute
}

// flight is one in-progress solve shared by every concurrent request
// with the same key. Waiters hold a reference; when the last waiter
// abandons (client gone, deadline hit) the flight's context is cancelled
// so the search stops instead of warming a cache nobody asked to keep.
type flight struct {
	done     chan struct{}
	res      *solveResult
	err      error
	waiters  int
	finished bool
	cancel   context.CancelFunc
}

type job struct {
	req *Request
	fl  *flight
	ctx context.Context
}

// Server is the orchestration service. Create with New, mount Handler on
// an http.Server, stop with Shutdown.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	base    atomicflow.HardwareConfig
	oracle  atomicflow.CostOracle // shared across requests (counts evaluations)
	store   *store.Store          // nil: no persistence, no warm starts
	dash    *dash.Store
	cache   *lruCache
	queue   chan *job
	wg      sync.WaitGroup
	baseCtx context.Context
	stopAll context.CancelFunc
	started time.Time

	mu       sync.Mutex
	flights  map[string]*flight
	draining bool

	busyCount atomic.Int64
	m         serveMetrics

	// solveHook, when non-nil, runs at the top of every solve on the
	// worker goroutine. Tests use it to hold a worker mid-job and make
	// backpressure and drain scenarios deterministic.
	solveHook func()
}

type serveMetrics struct {
	requests   *obs.Counter
	rejected   *obs.Counter
	cacheHits  *obs.Counter
	cacheMiss  *obs.Counter
	dedup      *obs.Counter
	solves     *obs.Counter
	solveErrs  *obs.Counter
	hitRatio   *obs.Gauge
	queueDepth *obs.Gauge
	queueCap   *obs.Gauge
	workers    *obs.Gauge
	busy       *obs.Gauge
	uptime     *obs.Gauge
	reqLatency *obs.Histogram
	solveTime  *obs.Histogram

	// Cost-oracle evaluations (updated after every solve).
	oracleEvals *obs.Gauge

	// Persistent-store visibility (zero-valued and inert when the server
	// runs without a store).
	storeHits    *obs.Counter
	storeRecords *obs.Gauge
	warmStarts   *obs.Counter
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	base := atomicflow.DefaultHardware()
	if cfg.Hardware != nil {
		base = *cfg.Hardware
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		base:    base,
		oracle:  atomicflow.NewCostOracle(),
		store:   cfg.Store,
		cache:   newLRU(cfg.cacheEntries()),
		queue:   make(chan *job, cfg.queueDepth()),
		baseCtx: ctx,
		stopAll: cancel,
		started: time.Now(),
		flights: make(map[string]*flight),
	}
	lat := obs.ExpBuckets(1e-4, 4, 12) // 100µs .. ~400s
	s.m = serveMetrics{
		requests:   reg.Counter("serve_requests_total"),
		rejected:   reg.Counter("serve_queue_rejected_total"),
		cacheHits:  reg.Counter("serve_cache_hits_total"),
		cacheMiss:  reg.Counter("serve_cache_misses_total"),
		dedup:      reg.Counter("serve_dedup_joined_total"),
		solves:     reg.Counter("serve_solves_total"),
		solveErrs:  reg.Counter("serve_solve_errors_total"),
		hitRatio:   reg.Gauge("serve_cache_hit_ratio"),
		queueDepth: reg.Gauge("serve_queue_depth"),
		queueCap:   reg.Gauge("serve_queue_capacity"),
		workers:    reg.Gauge("serve_workers"),
		busy:       reg.Gauge("serve_workers_busy"),
		uptime:     reg.Gauge("serve_uptime_seconds"),
		reqLatency: reg.Histogram("serve_request_seconds", lat),
		solveTime:  reg.Histogram("serve_solve_seconds", lat),

		oracleEvals: reg.Gauge("cost_oracle_evaluations"),

		storeHits:    reg.Counter("serve_store_hits_total"),
		storeRecords: reg.Gauge("serve_store_records"),
		warmStarts:   reg.Counter("serve_warm_starts_total"),
	}
	s.m.queueCap.SetInt(int64(cfg.queueDepth()))
	s.m.workers.SetInt(int64(cfg.workers()))
	// Fleet identity: a constant-1 build_info gauge carrying the binary's
	// version labels (Prometheus convention), so dashboards and scrapes
	// can tell one deploy from another.
	reg.Gauge(buildInfoName()).Set(1)
	// The live dashboard's stores. Always on: feeding them costs ring
	// appends on already-slow paths (request admission, solve lifecycle,
	// exchange barriers), and bounded memory. Mounted at /debug/dash.
	s.dash = dash.NewStore(dash.Config{})
	if s.store != nil {
		s.m.storeRecords.SetInt(int64(s.store.Len()))
	}
	for i := 0; i < cfg.workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics returns the server's registry (exported at /metrics).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Dash returns the server's live-dashboard store (served at /debug/dash).
func (s *Server) Dash() *dash.Store { return s.dash }

// buildInfoName assembles the labeled build_info gauge name: the
// binary's module version (or VCS revision when stamped), the Go
// toolchain and GOMAXPROCS. Computed once at startup — none of these
// change while the process lives.
func buildInfoName() string {
	version := "dev"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			version = v
		}
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
				version = kv.Value[:12]
			}
		}
	}
	return fmt.Sprintf(`build_info{go_version=%q,gomaxprocs="%d",version=%q}`,
		runtime.Version(), runtime.GOMAXPROCS(0), version)
}

// solveID is the dashboard's short handle for a request: enough key
// prefix to be unique in any realistic event window, short enough to
// scan in a table.
func solveID(req *Request) string {
	if k := req.Key(); len(k) >= 12 {
		return k[:12]
	}
	return req.Key()
}

// modelName labels a request for humans: the zoo name, or the inline
// graph's own name.
func modelName(req *Request) string {
	if req.Model != "" {
		return req.Model
	}
	if req.graph != nil && req.graph.Name != "" {
		return req.graph.Name
	}
	return "inline"
}

// Shutdown drains the server: new work is refused with 503, queued and
// in-flight solves complete and their waiters are answered. If ctx
// expires first, the remaining solves are cancelled (their waiters see a
// cancellation error) and ctx.Err is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // intake is guarded by draining under mu
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.stopAll()
		<-done
		return ctx.Err()
	}
}

// lookup returns a cached result, or joins/starts a flight for key.
// Exactly one of res, fl is non-nil unless err is set; errQueueFull and
// errDraining report backpressure and shutdown.
var (
	errQueueFull = fmt.Errorf("serve: queue full")
	errDraining  = fmt.Errorf("serve: draining")
)

func (s *Server) lookup(req *Request) (*solveResult, string, *flight, error) {
	if res, ok := s.cache.get(req.Key()); ok {
		s.m.cacheHits.Inc()
		s.updateHitRatio()
		s.dash.Publish(dash.EvCached, solveID(req), modelName(req), "")
		return res, "hit", nil, nil
	}
	// The persistent store outlives restarts: a record under this exact
	// key holds the bytes a previous process served, so answer with them
	// (and backfill the in-memory LRU) instead of re-solving.
	if s.store != nil {
		if rec, ok := s.store.Get(req.Key()); ok && len(rec.Body) > 0 {
			res := &solveResult{body: rec.Body, digest: rec.Digest}
			s.cache.add(req.Key(), res)
			s.m.cacheHits.Inc()
			s.m.storeHits.Inc()
			s.updateHitRatio()
			s.dash.Publish(dash.EvStoreHit, solveID(req), modelName(req), "")
			return res, "store", nil, nil
		}
	}
	s.m.cacheMiss.Inc()
	s.updateHitRatio()

	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under mu: solve adds its result to the cache before finish
	// unlinks the flight under mu, so a flight that completed after the
	// lock-free check above is found here rather than solved twice. The
	// request joined that solve, so it counts as a dedup, like a waiter.
	if res, ok := s.cache.get(req.Key()); ok {
		s.m.dedup.Inc()
		return res, "miss", nil, nil
	}
	if s.draining {
		return nil, "", nil, errDraining
	}
	if fl, ok := s.flights[req.Key()]; ok {
		fl.waiters++
		s.m.dedup.Inc()
		s.dash.Publish(dash.EvDedup, solveID(req), modelName(req),
			fmt.Sprintf("waiters=%d", fl.waiters))
		return nil, "", fl, nil
	}
	jctx, jcancel := context.WithCancel(s.baseCtx)
	fl := &flight{done: make(chan struct{}), waiters: 1, cancel: jcancel}
	select {
	case s.queue <- &job{req: req, fl: fl, ctx: jctx}:
		s.flights[req.Key()] = fl
		s.m.queueDepth.SetInt(int64(len(s.queue)))
		s.dash.Publish(dash.EvAdmitted, solveID(req), modelName(req),
			fmt.Sprintf("queue=%d", len(s.queue)))
		return nil, "", fl, nil
	default:
		jcancel()
		s.m.rejected.Inc()
		s.dash.Publish(dash.EvRejected, solveID(req), modelName(req), "queue full")
		return nil, "", nil, errQueueFull
	}
}

// abandon drops one waiter from a flight; the last waiter out cancels
// the underlying search and unlinks the flight so a later identical
// request starts fresh instead of joining a cancelled solve.
func (s *Server) abandon(key string, fl *flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fl.waiters--
	if fl.waiters > 0 || fl.finished {
		return
	}
	fl.cancel()
	if s.flights[key] == fl {
		delete(s.flights, key)
	}
}

func (s *Server) updateHitRatio() {
	hits := float64(s.m.cacheHits.Value())
	total := hits + float64(s.m.cacheMiss.Value())
	if total > 0 {
		s.m.hitRatio.Set(hits / total)
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for jb := range s.queue {
		s.m.queueDepth.SetInt(int64(len(s.queue)))
		s.m.busy.SetInt(s.busyCount.Add(1))
		res, err := s.runJob(jb)
		s.m.busy.SetInt(s.busyCount.Add(-1))
		s.finish(jb, res, err)
	}
}

func (s *Server) runJob(jb *job) (*solveResult, error) {
	if s.solveHook != nil {
		s.solveHook()
	}
	if err := jb.ctx.Err(); err != nil {
		return nil, fmt.Errorf("serve: abandoned before start: %w", err)
	}
	span := obs.StartSpan(s.m.solveTime)
	defer span.End()
	s.m.solves.Inc()

	req := jb.req
	id, model := solveID(req), modelName(req)
	hw := req.hardware(s.base)
	hw.Oracle = s.oracle
	opt := atomicflow.Options{
		Batch:            req.Batch,
		Hardware:         &hw,
		Seed:             req.Seed,
		SAIters:          req.SAIters,
		Chains:           req.Chains,
		MaxTilesPerLayer: req.MaxTiles,
		Progress:         s.dashProgress(id, model),
		Context:          jb.ctx,
	}
	if req.Mode == "greedy" {
		opt.Mode = schedule.Greedy
	}
	var traceBuf bytes.Buffer
	if req.Trace {
		opt.TraceWriter = &traceBuf
	}
	// Warm start: seed the search from the store's best related record —
	// the same graph solved under a different key (typically different
	// hardware). No donor yet means the request simply solves cold.
	if req.WarmStart && s.store != nil {
		if donor, ok := s.store.Related(req.graphHash, req.Key()); ok && len(donor.Parts) > 0 {
			opt.WarmStart = donor.Parts
			s.m.warmStarts.Inc()
			s.dash.Publish(dash.EvWarmStart, id, model,
				fmt.Sprintf("donor %.12s (%s)", donor.Key, donor.Model))
		}
	}
	s.dash.SolveStarted(id, model, req.Chains)
	start := time.Now()
	sol, err := atomicflow.Orchestrate(req.graph, opt)
	s.publishOracleGauges()
	if err != nil {
		s.m.solveErrs.Inc()
		s.dash.SolveFinished(dash.Session{
			ID: id, Model: model, Chains: req.Chains,
			DurMS: time.Since(start).Milliseconds(), Error: err.Error(),
		})
		return nil, err
	}
	resp := SolveResponse{
		Model:       req.Model,
		Digest:      sol.Digest(),
		Atoms:       sol.Atoms,
		Rounds:      sol.Rounds,
		AtomCycleCV: sol.AtomCycleCV,
		SearchMS:    float64(sol.SearchTime.Microseconds()) / 1e3,
		Report:      sol.Report,
	}
	if req.Trace {
		resp.Trace = json.RawMessage(traceBuf.Bytes())
	}
	body, err := json.Marshal(resp)
	if err != nil {
		s.m.solveErrs.Inc()
		return nil, fmt.Errorf("serve: encode response: %w", err)
	}
	res := &solveResult{body: body, digest: resp.Digest}
	s.cache.add(req.Key(), res)
	// Persist the finished solve: the exact bytes for replay after a
	// restart, plus the solved partitions as warm-start seed material
	// for related requests. Persistence failure is a log-free downgrade
	// to cache-only operation, never a request failure.
	if s.store != nil {
		if perr := s.store.Put(store.Record{
			Key:       req.Key(),
			GraphHash: req.graphHash,
			Model:     model,
			Digest:    resp.Digest,
			Body:      body,
			Parts:     sol.Partitions(),
			SavedUnix: time.Now().Unix(),
		}); perr == nil {
			s.m.storeRecords.SetInt(int64(s.store.Len()))
		}
	}
	s.dash.SolveFinished(dash.Session{
		ID: id, Model: model, Chains: req.Chains,
		DurMS:  time.Since(start).Milliseconds(),
		Digest: resp.Digest, Rounds: sol.Rounds, Atoms: sol.Atoms,
		FinalCV: sol.AtomCycleCV,
	})
	return res, nil
}

// dashProgress adapts the annealer's per-chain progress samples into the
// dashboard's stores: every batch lands in the active solve's series,
// and multi-chain exchange barriers additionally publish a
// chain_exchange event with the barrier's adoption count. Pure
// observation — the hook reads the samples it is handed and never
// touches search state.
func (s *Server) dashProgress(id, model string) func([]atomicflow.SearchSample) {
	return func(samples []atomicflow.SearchSample) {
		pts := make([]dash.ChainSample, len(samples))
		adopted, final := 0, false
		for i, sm := range samples {
			pts[i] = dash.ChainSample{
				Chain: sm.Chain, Iters: sm.Iters, Temp: sm.Temp,
				BestE: sm.BestE, BestCV: sm.CV(), Adopted: sm.Adopted,
			}
			if sm.Adopted {
				adopted++
			}
			if sm.Final {
				final = true
			}
		}
		s.dash.SolveProgress(id, pts)
		if len(samples) > 1 && !final {
			s.dash.Publish(dash.EvExchange, id, model,
				fmt.Sprintf("iters=%d adopted=%d", samples[0].Iters, adopted))
		}
	}
}

// publishOracleGauges refreshes the cost_oracle_evaluations gauge from
// the shared oracle. A gauge, not a counter: the oracle owns the monotone
// value and the registry mirrors its latest reading.
func (s *Server) publishOracleGauges() {
	if st, ok := cost.StatsOf(s.oracle); ok {
		s.m.oracleEvals.SetInt(st.Evaluations)
	}
}

// finish publishes a flight's outcome and wakes its waiters.
func (s *Server) finish(jb *job, res *solveResult, err error) {
	s.mu.Lock()
	jb.fl.res, jb.fl.err = res, err
	jb.fl.finished = true
	if s.flights[jb.req.Key()] == jb.fl {
		delete(s.flights, jb.req.Key())
	}
	s.mu.Unlock()
	jb.fl.cancel() // release the context's resources
	close(jb.fl.done)
}

// SolveResponse is the /solve response body. The same marshaled bytes
// are served to every waiter of a flight and every later cache hit;
// cache status travels in the X-Adserve-Cache header so bodies stay
// bit-identical.
type SolveResponse struct {
	Model       string            `json:"model,omitempty"`
	Digest      string            `json:"digest"`
	Atoms       int               `json:"atoms"`
	Rounds      int               `json:"rounds"`
	AtomCycleCV float64           `json:"atom_cycle_cv"`
	SearchMS    float64           `json:"search_ms"`
	Report      atomicflow.Report `json:"report"`
	Trace       json.RawMessage   `json:"trace,omitempty"`
}
