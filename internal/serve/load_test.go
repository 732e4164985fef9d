package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// loadBodies is the 3-model request mix of the in-repo load test.
var loadBodies = []string{
	`{"model":"tinyconv","sa_iters":60}`,
	`{"model":"tinyresnet","sa_iters":60}`,
	`{"model":"tinybranch","sa_iters":60}`,
}

// TestServeLoad100 is the in-repo load test: 100 concurrent /solve
// requests over a 3-model mix must all complete, the search must run
// exactly once per distinct request (everything else deduplicated or
// cached), the hit ratio must be visible in /metrics, and the cached
// path must answer with p50 latency under 5ms.
func TestServeLoad100(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8})

	const n = 100
	var wg sync.WaitGroup
	codes := make([]int, n)
	digests := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postSolve(t, ts, loadBodies[i%len(loadBodies)])
			codes[i] = resp.StatusCode
			var sr SolveResponse
			if json.Unmarshal(body, &sr) == nil {
				digests[i] = sr.Digest
			}
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d (%s): status %d", i, loadBodies[i%len(loadBodies)], code)
		}
	}
	// Identical requests must yield identical solutions.
	for i := range digests {
		if digests[i] != digests[i%len(loadBodies)] {
			t.Errorf("request %d digest %s != first same-model digest %s",
				i, digests[i], digests[i%len(loadBodies)])
		}
	}
	// The search ran once per distinct key; the other 97 were joined or
	// cache-served.
	if got := s.m.solves.Value(); got != int64(len(loadBodies)) {
		t.Errorf("serve_solves_total = %d, want %d", got, len(loadBodies))
	}
	if joined, hits := s.m.dedup.Value(), s.m.cacheHits.Value(); joined+hits != n-int64(len(loadBodies)) {
		t.Errorf("dedup %d + hits %d != %d", joined, hits, n-len(loadBodies))
	}

	// Cache hit ratio is reported on /metrics.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "serve_cache_hit_ratio") ||
		!strings.Contains(buf.String(), "serve_solves_total 3") {
		t.Errorf("/metrics missing load-test evidence:\n%s", buf.String())
	}

	// Cached-path latency: 51 sequential repeats of a warm key.
	lats := make([]time.Duration, 51)
	for i := range lats {
		start := time.Now()
		r, _ := postSolve(t, ts, loadBodies[0])
		lats[i] = time.Since(start)
		if r.Header.Get("X-Adserve-Cache") != "hit" {
			t.Fatalf("repeat %d not served from cache", i)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if p50 := lats[len(lats)/2]; p50 > 5*time.Millisecond {
		t.Errorf("cached-path p50 = %v, want < 5ms", p50)
	}
}

// BenchmarkSolveCached measures the cached /solve path end to end over
// HTTP — the latency a repeat query pays once its solution is resident.
func BenchmarkSolveCached(b *testing.B) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	}()
	body := `{"model":"tinyconv","sa_iters":60}`
	warm, err := ts.Client().Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	warm.Body.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ts.Client().Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		_, _ = bytes.NewBuffer(nil).ReadFrom(resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkSolveColdChains measures an uncached /solve running a 4-chain
// search portfolio end to end over HTTP. Every iteration changes the
// seed, so each request misses the solution cache and pays the full
// search — the number this bench tracks is the cold-path latency the
// portfolio is supposed to cut on multicore runners.
func BenchmarkSolveColdChains(b *testing.B) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"model":"tinyconv","sa_iters":400,"chains":4,"seed":%d}`, i+1)
		resp, err := ts.Client().Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Adserve-Cache"); got != "miss" {
			b.Fatalf("request %d served %q, want a cold miss", i, got)
		}
		_, _ = bytes.NewBuffer(nil).ReadFrom(resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkSolveColdDeep measures an uncached /solve over the 1026-layer
// deepchain1k model — the transformer-depth stress case the incremental
// (delta) move evaluation in internal/anneal targets. Every iteration
// changes the seed so each request misses the cache and pays the full
// search; the number this bench tracks is how cold-path latency scales
// with graph depth.
func BenchmarkSolveColdDeep(b *testing.B) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"model":"deepchain1k","sa_iters":400,"seed":%d}`, i+1)
		resp, err := ts.Client().Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Adserve-Cache"); got != "miss" {
			b.Fatalf("request %d served %q, want a cold miss", i, got)
		}
		_, _ = bytes.NewBuffer(nil).ReadFrom(resp.Body)
		resp.Body.Close()
	}
}
