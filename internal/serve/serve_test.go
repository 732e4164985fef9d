package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	atomicflow "github.com/atomic-dataflow/atomicflow"
	"github.com/atomic-dataflow/atomicflow/internal/models"
)

// newTestServer spins up a Server behind httptest and tears both down at
// test end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

func postSolve(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

// TestSingleflightDedup is the serve-layer concurrency contract: N
// concurrent identical requests run the search once and every caller
// receives bit-identical bytes.
func TestSingleflightDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	const n = 16
	body := `{"model":"tinyconv","sa_iters":60}`

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postSolve(t, ts, body)
			codes[i], bodies[i] = resp.StatusCode, b
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: body differs\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := s.m.solves.Value(); got != 1 {
		t.Errorf("search ran %d times, want exactly 1", got)
	}
	// Every non-originating request either joined the flight or hit the
	// cache after the flight finished.
	if joined, hits := s.m.dedup.Value(), s.m.cacheHits.Value(); joined+hits != n-1 {
		t.Errorf("dedup %d + cache hits %d != %d", joined, hits, n-1)
	}
	var sr SolveResponse
	if err := json.Unmarshal(bodies[0], &sr); err != nil {
		t.Fatalf("response: %v", err)
	}
	if sr.Digest == "" || sr.Report.Cycles <= 0 || sr.Rounds <= 0 {
		t.Errorf("implausible solution: %+v", sr)
	}
}

// TestCacheHit verifies the repeat-request path: second identical request
// is served from cache with identical bytes, and the hit ratio shows up
// in the Prometheus exposition.
func TestCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"model":"tinybranch","sa_iters":60}`
	resp1, b1 := postSolve(t, ts, body)
	resp2, b2 := postSolve(t, ts, body)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("status %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Adserve-Cache"); got != "hit" {
		t.Errorf("second request X-Adserve-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cached body differs from original")
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "serve_cache_hit_ratio") {
		t.Errorf("/metrics missing serve_cache_hit_ratio:\n%s", buf.String())
	}
}

// TestBackpressure fills the worker and the queue, then asserts the next
// request is refused with 429 + Retry-After instead of queuing unbounded
// work — and that the refusal does not poison later service.
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.solveHook = func() { <-gate }
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})

	var wg sync.WaitGroup
	start := func(body string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b := postSolve(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("accepted request failed: %d %s", resp.StatusCode, b)
			}
		}()
	}
	// R1 occupies the worker (held at the gate), R2 fills the queue slot.
	start(`{"model":"tinyconv","sa_iters":60}`)
	waitFor(t, func() bool { return s.busyCount.Load() == 1 })
	start(`{"model":"tinyresnet","sa_iters":60}`)
	waitFor(t, func() bool { return len(s.queue) == 1 })

	resp, _ := postSolve(t, ts, `{"model":"tinybranch","sa_iters":60}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if got := s.m.rejected.Value(); got != 1 {
		t.Errorf("serve_queue_rejected_total = %d, want 1", got)
	}

	close(gate) // release the worker; R1 and R2 must both complete
	wg.Wait()
	resp, _ = postSolve(t, ts, `{"model":"tinybranch","sa_iters":60}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-backpressure request: status %d, want 200", resp.StatusCode)
	}
}

// TestGracefulShutdownDrains holds a worker mid-solve with one request
// running and one queued, starts Shutdown, and asserts (a) new requests
// are refused, (b) both accepted requests still complete with 200, and
// (c) Shutdown returns only after the drain.
func TestGracefulShutdownDrains(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4})
	s.solveHook = func() { <-gate }
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i, body := range []string{
		`{"model":"tinyconv","sa_iters":60}`,
		`{"model":"tinyresnet","sa_iters":60}`,
	} {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			resp, _ := postSolve(t, ts, body)
			codes[i] = resp.StatusCode
		}(i, body)
	}
	waitFor(t, func() bool { return s.busyCount.Load() == 1 && len(s.queue) == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})

	resp, _ := postSolve(t, ts, `{"model":"tinybranch","sa_iters":60}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d, want 503", resp.StatusCode)
	}
	// The worker is provably still held at the solveHook gate, so
	// Shutdown cannot have completed yet: any value on shutdownDone here
	// is the bug itself — no timed window needed.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before drain: %v", err)
	default:
	}

	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("accepted request %d lost during drain: status %d", i, code)
		}
	}
}

// TestServedMatchesDirect is the serving half of the determinism
// acceptance: for every zoo model the digest returned through the server
// equals the digest of a direct Orchestrate call with the same knobs.
func TestServedMatchesDirect(t *testing.T) {
	names := []string{"tinyconv", "tinyresnet", "tinybranch"}
	if !testing.Short() {
		names = append([]string(nil), models.PaperWorkloads...)
	}
	// Reduced sizes keep the 8-model sweep affordable under -race; the
	// digests still pin the full anneal→schedule→map→simulate pipeline.
	const saIters, maxTiles = 120, 128
	type input struct {
		test, model string
		bufferBytes int // 0 = default hardware
	}
	var inputs []input
	for _, name := range names {
		inputs = append(inputs, input{name, name, 0})
	}
	// buffer_bytes sizes the engine: the search's atoms as well as the
	// simulated buffer.
	inputs = append(inputs, input{"tinyresnet_buffer16KB", "tinyresnet", 16 << 10})
	_, ts := newTestServer(t, Config{})
	for _, in := range inputs {
		t.Run(in.test, func(t *testing.T) {
			resp, body := postSolve(t, ts, fmt.Sprintf(`{"model":%q,"sa_iters":%d,"max_tiles":%d,"hardware":{"buffer_bytes":%d}}`,
				in.model, saIters, maxTiles, in.bufferBytes))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var sr SolveResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			g, err := atomicflow.LoadModel(in.model)
			if err != nil {
				t.Fatal(err)
			}
			hw := atomicflow.DefaultHardware()
			if in.bufferBytes > 0 {
				hw.Engine.BufferBytes = in.bufferBytes
			}
			sol, err := atomicflow.Orchestrate(g, atomicflow.Options{
				SAIters: saIters, MaxTilesPerLayer: maxTiles, Hardware: &hw,
			})
			if err != nil {
				t.Fatal(err)
			}
			if direct := sol.Digest(); direct != sr.Digest {
				t.Errorf("served digest %s != direct digest %s", sr.Digest, direct)
			}
		})
	}
}

// TestSolveValidation covers the request-surface error paths, the
// clamp of a timeout_ms too large for a time.Duration to the server's
// deadline, and an older client's "warm_start" field, which is ignored
// like any unknown field.
func TestSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
		want       int
	}{
		{"empty", `{}`, 400},
		{"junk", `{"model":`, 400},
		{"both model and graph", `{"model":"tinyconv","graph":{"name":"x","layers":[]}}`, 400},
		{"unknown model", `{"model":"nope"}`, 400},
		{"bad mode", `{"model":"tinyconv","mode":"magic"}`, 400},
		{"batch too big", `{"model":"tinyconv","batch":1000}`, 400},
		{"bad mesh", `{"model":"tinyconv","hardware":{"mesh_w":99}}`, 400},
		{"negative timeout", `{"model":"tinyconv","timeout_ms":-1}`, 400},
		{"huge timeout", `{"model":"tinyconv","timeout_ms":10000000000000}`, 200},
		{"legacy warm_start", `{"model":"tinyconv","sa_iters":80,"warm_start":true}`, 200},
		{"bad graph", `{"graph":{"name":"x","layers":[{"name":"a","op":"Conv","inputs":["missing"]}]}}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postSolve(t, ts, tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
		})
	}
	resp, err := ts.Client().Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: status %d, want 405", resp.StatusCode)
	}
}

// TestInlineGraphSolve submits a workload through the exchange format
// rather than by zoo name and checks the solution digest matches the
// same graph loaded directly — the ONNX-analogue round trip.
func TestInlineGraphSolve(t *testing.T) {
	g, err := atomicflow.LoadModel("tinyconv")
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := atomicflow.WriteModel(&doc, g); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	body := fmt.Sprintf(`{"graph":%s,"sa_iters":60}`, doc.String())
	resp, respBody := postSolve(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, respBody)
	}
	var sr SolveResponse
	if err := json.Unmarshal(respBody, &sr); err != nil {
		t.Fatal(err)
	}
	sol, err := atomicflow.Orchestrate(g, atomicflow.Options{SAIters: 60})
	if err != nil {
		t.Fatal(err)
	}
	if direct := sol.Digest(); direct != sr.Digest {
		t.Errorf("inline-graph digest %s != direct digest %s", sr.Digest, direct)
	}
}

// TestSolveTrace checks that "trace":true returns the full-span
// document: the engines, noc and dram process lanes.
func TestSolveTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postSolve(t, ts, `{"model":"tinyconv","sa_iters":60,"trace":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(sr.Trace, &doc); err != nil {
		t.Fatalf("trace is not a trace-event document: %v", err)
	}
	lanes := map[any]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" {
			lanes[ev.Args["name"]] = true
		}
	}
	for _, want := range []string{"engines", "noc", "dram"} {
		if !lanes[want] {
			t.Errorf("trace has no %q process lane (have %v)", want, lanes)
		}
	}
}

// TestSolveBodyLimit checks that a /solve body over 8 MiB is refused
// with 413 before it is parsed.
func TestSolveBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"model":"tinyconv","pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	resp, _ := postSolve(t, ts, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d for a %d-byte body, want 413", resp.StatusCode, len(body))
	}
}

// TestHealthz checks the liveness document and its drain transition.
func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 7})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, h)
	}
	if h["queue_capacity"].(float64) != 7 || h["workers"].(float64) != 2 {
		t.Errorf("healthz config echo wrong: %v", h)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained: status %d, want 503", resp.StatusCode)
	}
}

// waitFor polls cond for up to 5s; the deadline only trips on bugs.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLookupRecheckAfterFlightFinished pins the admission race: a flight
// that finishes between lookup's lock-free cache check and its taking
// s.mu has already put its result in the cache and unlinked itself, so
// admission must answer from the cache instead of starting a second
// solve of the same key. The test holds s.mu to park lookup exactly in
// that window, publishes the result, then lets admission run.
func TestLookupRecheckAfterFlightFinished(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Workers: 1})
	s.solveHook = func() { <-gate }
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	t.Cleanup(func() { close(gate) })

	req, err := ParseRequest([]byte(`{"model":"tinyconv","sa_iters":60}`))
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		res *solveResult
		fl  *flight
		err error
	}
	done := make(chan out, 1)
	s.mu.Lock()
	go func() {
		res, _, fl, err := s.lookup(req)
		done <- out{res, fl, err}
	}()
	// The miss is counted after the lock-free check and before s.mu.
	waitFor(t, func() bool { return s.m.cacheMiss.Value() == 1 })
	finished := &solveResult{body: []byte(`{}`), digest: "finished"}
	s.cache.add(req.Key(), finished)
	s.mu.Unlock()

	o := <-done
	if o.err != nil || o.fl != nil || o.res != finished {
		t.Fatalf("lookup = (res %v, flight %v, err %v), want the cached result and no flight", o.res, o.fl, o.err)
	}
	s.mu.Lock()
	flights := len(s.flights)
	s.mu.Unlock()
	if flights != 0 || len(s.queue) != 0 || s.m.solves.Value() != 0 {
		t.Errorf("flights %d, queued %d, solves %d after a cached admission, want 0/0/0",
			flights, len(s.queue), s.m.solves.Value())
	}
}
