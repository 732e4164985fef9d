package dash

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/obs"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDashEndpointsContentTypes(t *testing.T) {
	st := NewStore()
	reg := obs.New()
	reg.Gauge("serve_workers").Set(4)
	reg.Counter("serve_requests_total").Add(7)
	srv := httptest.NewServer(Handler(st, reg))
	defer srv.Close()

	cases := []struct{ path, ct, body string }{
		{"/debug/dash", "text/html; charset=utf-8", "<!doctype html"},
		{"/debug/dash/", "text/html; charset=utf-8", "<!doctype html"},
		{"/debug/dash/dash.js", "application/javascript; charset=utf-8", "EventSource"},
		{"/debug/dash/state.json", "application/json; charset=utf-8", `"active"`},
		{"/debug/dash/sessions.json", "application/json; charset=utf-8", `"sessions"`},
	}
	for _, c := range cases {
		res, err := http.Get(srv.URL + c.path)
		if err != nil {
			t.Fatalf("GET %s: %v", c.path, err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", c.path, res.StatusCode)
		}
		if got := res.Header.Get("Content-Type"); got != c.ct {
			t.Fatalf("GET %s: Content-Type %q, want %q", c.path, got, c.ct)
		}
		var sb strings.Builder
		sc := bufio.NewScanner(res.Body)
		for sc.Scan() {
			sb.WriteString(sc.Text())
		}
		res.Body.Close()
		if !strings.Contains(strings.ToLower(sb.String()), strings.ToLower(c.body)) {
			t.Fatalf("GET %s: body missing %q", c.path, c.body)
		}
	}
}

func TestDashRejectsNonGET(t *testing.T) {
	st := NewStore()
	srv := httptest.NewServer(Handler(st, nil))
	defer srv.Close()
	for _, path := range []string{"/debug/dash", "/debug/dash/state.json", "/debug/dash/sessions.json", "/debug/dash/events"} {
		res, err := http.Post(srv.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: status %d, want 405", path, res.StatusCode)
		}
		if res.Header.Get("Allow") != "GET" {
			t.Fatalf("POST %s: Allow = %q, want GET", path, res.Header.Get("Allow"))
		}
	}
}

func TestStateJSONMirrorsRegistry(t *testing.T) {
	st := NewStore()
	reg := obs.New()
	reg.Gauge("serve_workers").Set(4)
	reg.Gauge("unrelated_gauge").Set(99) // not on the allowlist
	reg.Counter("serve_requests_total").Add(7)
	st.SolveStarted("abc", "vgg16", 2)
	srv := httptest.NewServer(Handler(st, reg))
	defer srv.Close()

	res, err := http.Get(srv.URL + "/debug/dash/state.json")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var doc struct {
		Active []struct {
			ID     string `json:"id"`
			Model  string `json:"model"`
			Chains int    `json:"chains"`
		} `json:"active"`
		Gauges   map[string]float64 `json:"gauges"`
		Counters map[string]int64   `json:"counters"`
	}
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Active) != 1 || doc.Active[0].ID != "abc" || doc.Active[0].Model != "vgg16" || doc.Active[0].Chains != 2 {
		t.Fatalf("active = %+v", doc.Active)
	}
	if doc.Gauges["serve_workers"] != 4 || doc.Counters["serve_requests_total"] != 7 {
		t.Fatalf("instruments not mirrored: %+v / %+v", doc.Gauges, doc.Counters)
	}
	if _, leaked := doc.Gauges["unrelated_gauge"]; leaked {
		t.Fatal("state.json leaked a gauge outside the fleet allowlist")
	}
}

// sseClient collects parsed events from one /debug/dash/events stream.
type sseClient struct {
	res    *http.Response
	events chan Event
}

func dialSSE(t *testing.T, url string) *sseClient {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	res, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatalf("dial SSE: %v", err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("SSE status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream; charset=utf-8" {
		t.Fatalf("SSE Content-Type %q", ct)
	}
	c := &sseClient{res: res, events: make(chan Event, 256)}
	go func() {
		defer close(c.events)
		sc := bufio.NewScanner(res.Body)
		var id, typ, data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				id = line[4:]
			case strings.HasPrefix(line, "event: "):
				typ = line[7:]
			case strings.HasPrefix(line, "data: "):
				data = line[6:]
			case line == "" && data != "":
				var ev Event
				if json.Unmarshal([]byte(data), &ev) == nil {
					// The frame must agree with its payload.
					if id != "" && typ == string(ev.Type) {
						c.events <- ev
					}
				}
				id, typ, data = "", "", ""
			}
		}
	}()
	return c
}

func (c *sseClient) close() { c.res.Body.Close() }

func TestSSEDeliversLiveAndBacklog(t *testing.T) {
	st := NewStore()
	srv := httptest.NewServer(Handler(st, nil))
	defer srv.Close()

	// Backlog published before the client connects must be replayed.
	st.Publish(EvStarted, "s1", "m", "")
	c := dialSSE(t, srv.URL+"/debug/dash/events")
	defer c.close()

	ev := <-c.events
	if ev.Type != EvStarted || ev.Solve != "s1" || ev.Seq != 1 {
		t.Fatalf("backlog event = %+v", ev)
	}

	// Live events flow through the same stream, in order.
	st.Publish(EvExchange, "s1", "m", "iters=64 adopted=1")
	st.Publish(EvFinished, "s1", "m", "digest")
	got := []Event{<-c.events, <-c.events}
	if got[0].Type != EvExchange || got[1].Type != EvFinished {
		t.Fatalf("live events = %+v", got)
	}
	if got[0].Seq != 2 || got[1].Seq != 3 {
		t.Fatalf("live seqs = %d, %d", got[0].Seq, got[1].Seq)
	}
	if got[0].Detail != "iters=64 adopted=1" {
		t.Fatalf("detail = %q", got[0].Detail)
	}
}

func TestSSESinceSkipsReplayed(t *testing.T) {
	st := NewStore()
	srv := httptest.NewServer(Handler(st, nil))
	defer srv.Close()
	st.Publish(EvStarted, "s1", "m", "")
	st.Publish(EvFinished, "s1", "m", "")

	c := dialSSE(t, srv.URL+"/debug/dash/events?since=1")
	defer c.close()
	ev := <-c.events
	if ev.Seq != 2 || ev.Type != EvFinished {
		t.Fatalf("first event after since=1 = %+v, want seq 2", ev)
	}
}

func TestSSEClientDisconnectReleasesSubscriber(t *testing.T) {
	st := NewStore()
	srv := httptest.NewServer(Handler(st, nil))
	defer srv.Close()

	c := dialSSE(t, srv.URL+"/debug/dash/events")
	waitFor(t, "subscriber attach", func() bool { return st.Subscribers() == 1 })

	// Drop the connection mid-stream; the handler goroutine must notice
	// via the request context and unsubscribe — no goroutine leak, no
	// dangling subscriber slowing future publishes.
	c.close()
	st.Publish(EvAdmitted, "k", "", "") // nudge past any blocking write
	waitFor(t, "subscriber detach", func() bool { return st.Subscribers() == 0 })
}
