package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/obs/dash"
)

// TestDashSolveLifecycle drives a real solve through the server with an
// SSE client attached and asserts the dashboard's promise: the stream
// delivers solve_started, chain_exchange and solve_finished for it, the
// session lands in history with the response's digest, and the active
// set is empty again afterwards.
func TestDashSolveLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	// Attach SSE before solving so nothing can be missed.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/debug/dash/events", nil)
	res, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatalf("dial SSE: %v", err)
	}
	defer res.Body.Close()
	types := make(chan string, 256)
	go func() {
		sc := bufio.NewScanner(res.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event: ") {
				types <- line[7:]
			}
		}
		close(types)
	}()

	resp, body := postSolve(t, ts, `{"model":"tinyresnet","sa_iters":200,"chains":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	// The event stream must carry the full lifecycle, in order.
	want := []string{string(dash.EvStarted), string(dash.EvExchange), string(dash.EvFinished)}
	deadline := time.After(10 * time.Second)
	for _, w := range want {
		for {
			select {
			case ty, ok := <-types:
				if !ok {
					t.Fatalf("SSE stream closed before %q", w)
				}
				if ty == w {
					goto next
				}
			case <-deadline:
				t.Fatalf("timed out waiting for %q on the event stream", w)
			}
		}
	next:
	}

	// sessions.json records the solve with the digest the client got.
	var sessDoc struct {
		Sessions []dash.Session `json:"sessions"`
	}
	getJSON(t, ts, "/debug/dash/sessions.json", &sessDoc)
	if len(sessDoc.Sessions) != 1 {
		t.Fatalf("history has %d sessions, want 1", len(sessDoc.Sessions))
	}
	sess := sessDoc.Sessions[0]
	if sess.Digest != sr.Digest {
		t.Fatalf("session digest %q != response digest %q", sess.Digest, sr.Digest)
	}
	if sess.Model != "tinyresnet" || sess.Chains != 2 || sess.Error != "" {
		t.Fatalf("session = %+v", sess)
	}
	if sess.Rounds != sr.Rounds {
		t.Fatalf("session rounds %d != response rounds %d", sess.Rounds, sr.Rounds)
	}

	// Nothing is left active, and the request-stage events were
	// published too (the admission event preceded the solve).
	var state dash.State
	getJSON(t, ts, "/debug/dash/state.json", &state)
	if len(state.Active) != 0 {
		t.Fatalf("%d solves still active", len(state.Active))
	}
	found := false
	for _, ev := range s.Dash().Recent(0) {
		if ev.Type == dash.EvAdmitted {
			found = true
		}
	}
	if !found {
		t.Fatal("no request_admitted event in the ring")
	}
}

// TestDashConcurrentSolvesTracked mirrors the CI smoke job in-process:
// two different solves run concurrently and both must appear in session
// history with distinct ids; cache hits and dedup joins publish their
// own request-stage events instead of new sessions.
func TestDashConcurrentSolvesTracked(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	bodies := []string{
		`{"model":"tinyconv","sa_iters":120,"chains":2}`,
		`{"model":"tinyresnet","sa_iters":120,"chains":2}`,
	}
	var wg sync.WaitGroup
	for _, b := range bodies {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			resp, body := postSolve(t, ts, b)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("solve %s: %d %s", b, resp.StatusCode, body)
			}
		}(b)
	}
	wg.Wait()

	var sessDoc struct {
		Sessions []dash.Session `json:"sessions"`
	}
	getJSON(t, ts, "/debug/dash/sessions.json", &sessDoc)
	if len(sessDoc.Sessions) != 2 {
		t.Fatalf("history has %d sessions, want 2", len(sessDoc.Sessions))
	}
	ids := map[string]bool{}
	models := map[string]bool{}
	for _, sess := range sessDoc.Sessions {
		ids[sess.ID] = true
		models[sess.Model] = true
		if sess.Digest == "" || sess.DurMS < 0 {
			t.Fatalf("bad session %+v", sess)
		}
	}
	if len(ids) != 2 || !models["tinyconv"] || !models["tinyresnet"] {
		t.Fatalf("sessions = %+v", sessDoc.Sessions)
	}

	// A repeat request is a cache hit: one request_cached event, no new
	// session.
	resp, _ := postSolve(t, ts, bodies[0])
	if resp.Header.Get("X-Adserve-Cache") != "hit" {
		t.Fatalf("repeat was %q, want hit", resp.Header.Get("X-Adserve-Cache"))
	}
	cached := 0
	for _, ev := range s.Dash().Recent(0) {
		if ev.Type == dash.EvCached {
			cached++
		}
	}
	if cached != 1 {
		t.Fatalf("%d request_cached events, want 1", cached)
	}
	getJSON(t, ts, "/debug/dash/sessions.json", &sessDoc)
	if len(sessDoc.Sessions) != 2 {
		t.Fatalf("cache hit grew history to %d sessions", len(sessDoc.Sessions))
	}
}

// TestServeMetricsLint scrapes the live /metrics endpoint after real
// traffic and feeds the body through the promtool-equivalent linter —
// the satellite gate that the exporter (including the hand-formatted
// multi-label build_info) stays spec-clean. The solve must also have
// published the shared oracle's evaluation count.
func TestServeMetricsLint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if resp, body := postSolve(t, ts, `{"model":"tinyconv","sa_iters":60}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	if got := s.m.oracleEvals.Value(); got <= 0 {
		t.Errorf("cost_oracle_evaluations = %v after a solve, want > 0", got)
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if err := obs.LintPrometheus(res.Body); err != nil {
		t.Fatalf("/metrics failed lint: %v", err)
	}
}

// TestBuildInfoAndUptimeExported pins satellite 1: build_info carries
// its labels on the text exposition and serve_uptime_seconds advances
// between scrapes.
func TestBuildInfoAndUptimeExported(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	scrape := func() string {
		res, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var sb strings.Builder
		sc := bufio.NewScanner(res.Body)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	out := scrape()
	for _, want := range []string{"build_info{", "go_version=", "gomaxprocs=", "serve_uptime_seconds"} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
	uptime := func(doc string) float64 {
		for _, line := range strings.Split(doc, "\n") {
			if strings.HasPrefix(line, "serve_uptime_seconds ") {
				var v float64
				if _, err := fmt.Sscan(line[len("serve_uptime_seconds "):], &v); err == nil {
					return v
				}
			}
		}
		t.Fatalf("no serve_uptime_seconds sample:\n%s", doc)
		return 0
	}
	u1 := uptime(out)
	// Uptime must advance between scrapes. Poll instead of sleeping a
	// fixed interval: the test waits exactly as long as the clock needs.
	waitFor(t, func() bool { return uptime(scrape()) > u1 })

	// /metrics.json mirrors both.
	var snap obs.Snapshot
	getJSON(t, ts, "/metrics.json", &snap)
	if snap.Gauges["serve_uptime_seconds"] <= 0 {
		t.Fatalf("metrics.json uptime = %v", snap.Gauges["serve_uptime_seconds"])
	}
	foundInfo := false
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "build_info{") && v == 1 {
			foundInfo = true
		}
	}
	if !foundInfo {
		t.Fatalf("metrics.json missing build_info gauge: %v", snap.Gauges)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	res, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}
