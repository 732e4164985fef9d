package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	atomicflow "github.com/atomic-dataflow/atomicflow"
	"github.com/atomic-dataflow/atomicflow/internal/modelio"
	"github.com/atomic-dataflow/atomicflow/internal/serve"
	"github.com/atomic-dataflow/atomicflow/internal/sim"
	"github.com/atomic-dataflow/atomicflow/internal/store"
)

// The serve-mixed workload: an in-process adserve (2 workers, a
// persistent store in a scratch directory) driven over loopback HTTP by
// closed-loop client goroutines of this process. Request i is a cold
// miss when i%5 == 4 (a unique seed, so it solves; the cold requests
// cycle through the 3 models × {kcp, yxp}), an inline-graph request for a
// random hot key when i%5 == 3, and a by-name request for a random hot
// key otherwise. The hot set, solved in set-up, is the same 3 models ×
// {kcp, yxp}. This mix is assumed, not taken from recorded traffic: the
// repository holds no /solve request log to derive it from.

const clients = 2 // at most nproc on the 2-core reference host

var (
	serveModels = []string{"resnet50", "inceptionv3", "deepchain1k"}
	dataflows   = []string{"kcp", "yxp"}
)

type hotKey struct {
	model, df      string
	seed           int64
	byName, inline []byte
	digest         string
}

type serveSession struct {
	seed     int64
	dir      string
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	url      string
	client   *http.Client
	hot      []hotKey
	coldBase int64
	macs     map[string]int64
	facts    hwFacts
	setup    []sim.Report // the hot set's Reports, first on the fixed list

	// Handler spans of traced requests, recorded by the wrapper around
	// Server.Handler() while recording is on.
	recording atomic.Bool
	tr        *tracer
	hmu       sync.Mutex
	handled   map[int]interval
}

type solveBody struct {
	Model    string          `json:"model,omitempty"`
	Graph    json.RawMessage `json:"graph,omitempty"`
	Seed     int64           `json:"seed"`
	Hardware struct {
		Dataflow string `json:"dataflow"`
	} `json:"hardware"`
}

func marshalBody(model string, graph []byte, seed int64, df string) []byte {
	b := solveBody{Seed: seed}
	if graph != nil {
		b.Graph = graph
	} else {
		b.Model = model
	}
	b.Hardware.Dataflow = df
	data, err := json.Marshal(b)
	if err != nil {
		panic(err) // a fixed struct of strings and numbers always encodes
	}
	return data
}

func openServe(seed int64, e env) (sess session, err error) {
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	s := &serveSession{seed: seed, macs: map[string]int64{}, handled: map[int]interval{},
		facts: factsOf(atomicflow.DefaultHardware())}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.dir, err = os.MkdirTemp(e.tmp, "serve-store-"); err != nil {
		return nil, fmt.Errorf("store dir: %w", err)
	}
	st, err := store.Open(s.dir)
	if err != nil {
		return nil, err
	}
	s.srv = serve.New(serve.Config{Workers: 2, Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := s.srv.Handler()
	if e.traced {
		h = s.wrap(h)
	}
	s.hs = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String() + "/solve"
	s.client = &http.Client{Transport: &http.Transport{
		Proxy: nil, MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
	}}

	for k, n := range serveModels {
		g, err := atomicflow.LoadModel(n)
		if err != nil {
			return nil, err
		}
		s.macs[n] = modelMACs(g)
		inline, err := modelio.Encode(g)
		if err != nil {
			return nil, err
		}
		for d, df := range dataflows {
			// Hot seeds lie below 2^30 and cold seeds above, so no cold
			// request can hit a hot key.
			hs := 1 + int64(splitmix(uint64(seed)<<3|uint64(2*k+d))%(1<<30-1))
			s.hot = append(s.hot, hotKey{model: n, df: df, seed: hs,
				byName: marshalBody(n, nil, hs, df), inline: marshalBody(n, inline, hs, df)})
		}
	}
	s.coldBase = 1<<30 + int64(splitmix(uint64(seed))%(1<<29))

	// Warm the hot set with the clients, recording each key's digest.
	s.setup = make([]sim.Report, len(s.hot))
	errs := make([]error, len(s.hot))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(s.hot); k = int(next.Add(1) - 1) {
				rep, _, err := s.post(s.hot[k].byName, -1)
				if err == nil {
					s.setup[k], s.hot[k].digest, err = s.check(rep, s.hot[k].model, "")
				}
				errs[k] = err
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("warming the hot set: %w", err)
	}
	return s, nil
}

func (s *serveSession) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.hs != nil {
		errs = append(errs, s.hs.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

// wrap times Server.Handler() for traced requests.
func (s *serveSession) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.recording.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := s.tr.now()
		defer func() {
			op, err := strconv.Atoi(r.Header.Get("X-Bench-Op"))
			if err != nil {
				return
			}
			s.hmu.Lock()
			s.handled[op] = interval{start, s.tr.now()}
			s.hmu.Unlock()
		}()
		h.ServeHTTP(w, r)
	})
}

type reply struct {
	status        int
	cache, digest string
	body          []byte
}

// post sends one /solve request and returns its reply and client-side
// latency, from before the request is written to after its body is read.
func (s *serveSession) post(body []byte, op int) (reply, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return reply{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Bench-Op", strconv.Itoa(op))
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return reply{}, 0, fmt.Errorf("read reply: %w", err)
	}
	return reply{resp.StatusCode, resp.Header.Get("X-Adserve-Cache"), resp.Header.Get("X-Adserve-Digest"), data}, lat, nil
}

// check verifies a reply for model: status 200, the body's digest equal
// to the header's (and to want, when given), and a consistent Report.
func (s *serveSession) check(r reply, model, want string) (sim.Report, string, error) {
	if r.status != http.StatusOK {
		return sim.Report{}, "", fmt.Errorf("status %d: %s", r.status, r.body)
	}
	var sr serve.SolveResponse
	if err := json.Unmarshal(r.body, &sr); err != nil {
		return sim.Report{}, "", fmt.Errorf("decode reply: %w", err)
	}
	if sr.Digest == "" || sr.Digest != r.digest {
		return sim.Report{}, "", fmt.Errorf("body digest %q, X-Adserve-Digest %q", sr.Digest, r.digest)
	}
	if want != "" && r.digest != want {
		return sim.Report{}, "", fmt.Errorf("digest %s, the key's miss gave %s", r.digest, want)
	}
	if err := checkReport(sr.Report, s.macs[model], s.facts); err != nil {
		return sim.Report{}, "", fmt.Errorf("%s: %w", model, err)
	}
	return sr.Report, sr.Digest, nil
}

// request is the plan of request i.
type request struct {
	cold  bool
	hot   int // hot-key index, for hot requests
	model string
	class string // the printed latency line: miss.<model>, hit.<model>.name or hit.<model>.inline
	body  []byte
}

func (s *serveSession) request(i int) request {
	if i%5 == 4 {
		pair := i / 5 % (len(serveModels) * len(dataflows))
		model, df := serveModels[pair/len(dataflows)], dataflows[pair%len(dataflows)]
		return request{cold: true, model: model, class: "miss." + model, body: marshalBody(model, nil, s.coldBase+int64(i), df)}
	}
	k := int(splitmix(uint64(s.seed)<<24^uint64(i)) % uint64(len(s.hot)))
	r := request{hot: k, model: s.hot[k].model, class: "hit." + s.hot[k].model + ".name", body: s.hot[k].byName}
	if i%5 == 3 {
		r.class, r.body = "hit."+s.hot[k].model+".inline", s.hot[k].inline
	}
	return r
}

// sent is the record of one request.
type sent struct {
	i, lane int
	req     request
	rep     reply
	lat     time.Duration
	scale   float64       // host speed correction of the request's slice
	iv      interval      // client span, on the tracer's clock (traced only)
	canon   time.Duration // serve.ParseRequest on the body (traced only)
	err     error
}

// drive runs the clients, handing out request indices from first on,
// until l.ops requests ran or l.seconds passed. A client reads the clock
// before it takes an index, so the requests that ran are exactly first,
// first+1, ..., first+len(out)-1.
func (s *serveSession) drive(l limit, first int, traced bool) ([]sent, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []sent
		wg   sync.WaitGroup
	)
	next.Store(int64(first))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				if l.ops == 0 && time.Since(start) >= l.seconds {
					return
				}
				i := int(next.Add(1) - 1)
				if l.ops > 0 && i-first >= l.ops {
					return
				}
				x := sent{i: i, lane: lane, req: s.request(i), scale: 1}
				if traced {
					t0 := time.Now()
					_, x.err = serve.ParseRequest(x.req.body)
					x.canon = time.Since(t0)
					x.iv.start = s.tr.now()
				}
				if x.err == nil {
					x.rep, x.lat, x.err = s.post(x.req.body, i)
				}
				x.iv.end = x.iv.start + x.lat
				mu.Lock()
				out = append(out, x)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	window := time.Since(start)
	slices.SortFunc(out, func(a, b sent) int { return a.i - b.i })
	return out, window
}

// record checks every reply and folds the requests into m; the Reports
// of cold requests below fixed join the fixed op list.
func (s *serveSession) record(m *measurement, out []sent, fixed int) {
	for _, x := range out {
		m.attempted++
		err := x.err
		if err == nil {
			want := ""
			if !x.req.cold {
				want = s.hot[x.req.hot].digest
			}
			var rep sim.Report
			var digest string
			rep, digest, err = s.check(x.rep, x.req.model, want)
			if err == nil && x.req.cold && x.rep.cache != "miss" {
				err = fmt.Errorf("unique key answered from cache (%q)", x.rep.cache)
			}
			if err == nil && x.req.cold && x.i < fixed {
				m.fixed = append(m.fixed, rep)
				m.digests = append(m.digests, digest)
			}
		}
		if err != nil {
			m.fail(x.i, err)
			continue
		}
		m.done(x.lat, x.scale)
		m.part(x.req.class, x.lat, x.scale)
	}
}

// hitWeights gives each hit class its share of the hot requests: a third
// per model, three quarters of those by name and a quarter inline.
// op_ms_p50 combines the hit classes' medians rather than taking the
// median request: the classes lie up to 40x apart, so the median request
// falls wherever the classes' tails happen to overlap in a run. The
// misses, which solve, set ops_per_s.
func hitWeights() map[string]float64 {
	w := map[string]float64{}
	for _, n := range serveModels {
		w["hit."+n+".name"] = 3.0 / 4 / float64(len(serveModels))
		w["hit."+n+".inline"] = 1.0 / 4 / float64(len(serveModels))
	}
	return w
}

func (s *serveSession) newMeasurement() *measurement {
	m := &measurement{fixed: slices.Clone(s.setup), classWeight: hitWeights()}
	for _, h := range s.hot {
		m.digests = append(m.digests, h.digest)
	}
	return m
}

// sliceLen is how long the clients run between two timings of the
// calibration kernel. They never pause on their own, so measure pauses
// them: host speed drifts within seconds.
const sliceLen = time.Second

func (s *serveSession) measure(l limit, fixed int) (*measurement, error) {
	m := s.newMeasurement()
	m.speed = newHostSpeed(3)
	var out []sent
	for len(out) == 0 || l.ops == 0 && (len(out) < fixed || m.rawWindow < l.seconds) {
		rt0 := readRuntime()
		slice, w := s.drive(limit{seconds: sliceLen, ops: l.ops}, len(out), false)
		m.rt = m.rt.add(readRuntime().sub(rt0))
		scale := m.speed.next(reps(w))
		for k := range slice {
			slice[k].scale = scale
		}
		out = append(out, slice...)
		m.window += scaled(w, scale)
		m.rawWindow += w
	}
	s.record(m, out, fixed)
	return m, nil
}

// trace runs the first half of the budget untraced and the second half
// traced. The traced half splits only the serve layer; the solve's own
// layers are attributed by the compile workloads.
func (s *serveSession) trace(l limit, t *tracer) (*measurement, error) {
	half := limit{seconds: l.seconds / 2, ops: l.ops}
	m := s.newMeasurement()
	rt0 := readRuntime()
	base, _ := s.drive(half, 0, false)
	t.agg.rt = readRuntime().sub(rt0)
	s.record(m, base, 0)
	for _, x := range base {
		t.agg.untracedTime += x.lat
	}
	t.agg.untracedOps = len(base)

	reg := s.srv.Metrics()
	solveHist := reg.Histogram("serve_solve_seconds", nil)
	solve0, solves0 := solveHist.Sum(), solveHist.Count()
	hits0, misses0 := reg.Gauge("cost_memo_hits").Value(), reg.Gauge("cost_memo_misses").Value()
	s.tr = t
	s.recording.Store(true)
	out, _ := s.drive(half, len(base), true)
	s.recording.Store(false)
	before := len(m.failures)
	s.record(m, out, 0)
	if len(m.failures) > before {
		return m, nil
	}
	handled, err := s.awaitHandled(out)
	if err != nil {
		return nil, err
	}

	a := t.agg
	var canon, handlerHit, transportHit []float64
	var handlerAll, handlerMiss time.Duration
	var hits, respBytes int
	for k, x := range out {
		h := handled[k]
		hd := h.end - h.start
		a.ops++
		a.tracedTime += x.lat
		a.self["serve.transport"] += x.lat - hd
		handlerAll += hd
		canon = append(canon, float64(x.canon)/1e3)
		respBytes += len(x.rep.body)
		if x.rep.cache == "miss" {
			handlerMiss += hd
		} else {
			hits++
			handlerHit = append(handlerHit, float64(hd)/1e3)
			transportHit = append(transportHit, float64(x.lat-hd)/1e3)
		}
		t.emit("POST /solve", "serve.transport", x.iv, 1+x.lane, x.i)
		t.emit("serve.Handler", "serve", h, 1+x.lane, x.i)
	}
	solveTime := time.Duration((solveHist.Sum() - solve0) * 1e9)
	a.self["serve.solve"] += solveTime
	a.self["serve"] += handlerAll - solveTime
	a.count["cost.hits"] += reg.Gauge("cost_memo_hits").Value() - hits0
	a.count["cost.misses"] += reg.Gauge("cost_memo_misses").Value() - misses0
	n := float64(len(out))
	a.set["serve.canon_us_p50"] = median(canon)
	a.set["serve.handler_hit_us_p50"] = median(handlerHit)
	a.set["serve.transport_hit_us_p50"] = median(transportHit)
	a.set["serve.queue_wait_ms_mean"] = div(ms(handlerMiss-solveTime), n-float64(hits))
	a.set["serve.solve_ms_mean"] = div(ms(solveTime), float64(solveHist.Count()-solves0))
	a.set["serve.hit_ratio"] = div(float64(hits), n)
	a.set["serve.resp_bytes_mean"] = div(float64(respBytes), n)
	return m, nil
}

// awaitHandled returns the handler span of each request in out. A client
// can read its reply before the wrapper's deferred record runs, so this
// waits for the stragglers.
func (s *serveSession) awaitHandled(out []sent) ([]interval, error) {
	deadline := time.Now().Add(10 * time.Second)
	spans := make([]interval, len(out))
	for k, x := range out {
		for {
			s.hmu.Lock()
			iv, ok := s.handled[x.i]
			s.hmu.Unlock()
			if ok {
				spans[k] = iv
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("request %d: no handler span recorded", x.i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return spans, nil
}
