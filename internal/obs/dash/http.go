package dash

import (
	"embed"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/obs"
)

//go:embed web
var webFS embed.FS

// fleetGauges and fleetCounters are the serve_* instruments the
// dashboard's header tiles read. The dash package renders them but the
// serving layer owns their names; state.json simply mirrors whichever
// exist in the registry at snapshot time.
var fleetGauges = []string{
	"serve_queue_depth", "serve_queue_capacity",
	"serve_workers", "serve_workers_busy",
	"serve_cache_hit_ratio", "serve_uptime_seconds",
}

var fleetCounters = []string{
	"serve_requests_total", "serve_solves_total", "serve_solve_errors_total",
	"serve_cache_hits_total", "serve_cache_misses_total",
	"serve_dedup_joined_total", "serve_queue_rejected_total",
}

// stateDoc is the full /debug/dash/state.json body: the live solves plus
// the fleet tiles' instrument readings.
type stateDoc struct {
	State
	Gauges   map[string]float64 `json:"gauges"`
	Counters map[string]int64   `json:"counters"`
}

// Handler mounts the dashboard at /debug/dash:
//
//	/debug/dash               the embedded web UI
//	/debug/dash/state.json    active solves + fleet gauges (poll-friendly)
//	/debug/dash/sessions.json recent session history, newest first
//	/debug/dash/events        server-sent-event stream of the event ring
//
// reg supplies the fleet tiles (queue depth, worker occupancy, cache hit
// ratio); nil is allowed and leaves those tiles empty. Every endpoint is
// GET-only and sets an explicit charset.
func Handler(st *Store, reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/dash", guard(serveAsset("web/index.html", "text/html; charset=utf-8")))
	mux.HandleFunc("/debug/dash/", guard(serveAsset("web/index.html", "text/html; charset=utf-8")))
	mux.HandleFunc("/debug/dash/dash.js", guard(serveAsset("web/dash.js", "application/javascript; charset=utf-8")))
	mux.HandleFunc("/debug/dash/state.json", guard(func(w http.ResponseWriter, r *http.Request) {
		doc := stateDoc{
			State:    st.StateSnapshot(),
			Gauges:   map[string]float64{},
			Counters: map[string]int64{},
		}
		if reg != nil {
			snap := reg.Snapshot()
			for _, n := range fleetGauges {
				if v, ok := snap.Gauges[n]; ok {
					doc.Gauges[n] = v
				}
			}
			for _, n := range fleetCounters {
				if v, ok := snap.Counters[n]; ok {
					doc.Counters[n] = v
				}
			}
		}
		writeJSON(w, doc)
	}))
	mux.HandleFunc("/debug/dash/sessions.json", guard(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"sessions": st.Sessions()})
	}))
	mux.HandleFunc("/debug/dash/events", guard(st.serveEvents))
	return mux
}

func guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func serveAsset(path, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b, err := webFS.ReadFile(path)
		if err != nil {
			http.Error(w, "asset missing", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", contentType)
		_, _ = w.Write(b)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// serveEvents is the SSE endpoint. It replays the retained backlog
// (filtered by an optional ?since=<seq> or Last-Event-ID header), then
// streams live events until the client goes away. Heartbeat comments
// keep idle connections alive through proxies. A slow client loses
// events rather than blocking publishers; the Seq field exposes gaps.
func (s *Store) serveEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream; charset=utf-8")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		since, _ = strconv.ParseUint(v, 10, 64)
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		since, _ = strconv.ParseUint(v, 10, 64)
	}

	// Subscribe before replaying the backlog so no event falls between
	// the two; the seq guard below drops the overlap.
	ch, cancel := s.Subscribe(256)
	defer cancel()

	last := since
	for _, ev := range s.Recent(0) {
		if ev.Seq <= last {
			continue
		}
		writeEvent(w, ev)
		last = ev.Seq
	}
	fl.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": ping\n\n")
			fl.Flush()
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if ev.Seq <= last {
				continue
			}
			writeEvent(w, ev)
			last = ev.Seq
			// Drain whatever queued behind it before flushing once.
			for more := true; more; {
				select {
				case ev, ok = <-ch:
					if !ok {
						more = false
						break
					}
					if ev.Seq > last {
						writeEvent(w, ev)
						last = ev.Seq
					}
				default:
					more = false
				}
			}
			fl.Flush()
		}
	}
}

func writeEvent(w http.ResponseWriter, ev Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
}
