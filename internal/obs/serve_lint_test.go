package obs_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/serve"
)

// TestLintServeMetrics lints a live server's /metrics after one solve,
// so every series the serve layer registers (build_info labels, the
// oracle and latency instruments) passes the exposition linter.
func TestLintServeMetrics(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})

	resp, err := ts.Client().Post(ts.URL+"/solve", "application/json",
		strings.NewReader(`{"model":"tinyconv","sa_iters":60}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}

	res, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if err := obs.LintPrometheus(res.Body); err != nil {
		t.Fatalf("/metrics failed lint: %v", err)
	}
}
