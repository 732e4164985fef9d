// Command adserve runs the orchestration-as-a-service HTTP server: it
// accepts workload graphs (the JSON exchange format, or bundled zoo
// names) plus a hardware spec on POST /solve and returns the full
// atomic-dataflow solution — schedule shape, predicted cycles/energy and
// an optional execution trace. Identical concurrent requests are
// deduplicated, repeat requests are answered from an LRU solution cache,
// and a bounded admission queue sheds load with 429 + Retry-After.
// A live fleet dashboard — active solves with per-chain convergence
// sparklines, session history, and an SSE event stream — is embedded at
// /debug/dash.
//
// With -store DIR finished solves persist across restarts: a repeated
// request is answered with the stored bytes instead of re-solving.
//
// Usage:
//
//	adserve -addr :8080 -store /var/lib/adserve
//	curl -s localhost:8080/solve -d '{"model":"resnet50","sa_iters":200}'
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics
//	open http://localhost:8080/debug/dash
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/serve"
	"github.com/atomic-dataflow/atomicflow/internal/store"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "solve worker pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", serve.DefaultQueueDepth, "admission queue depth; a full queue answers 429")
		cache   = flag.Int("cache", serve.DefaultCacheEntries, "solution cache entries (LRU)")
		timeout = flag.Duration("timeout", serve.DefaultRequestTimeout, "per-request solve deadline")
		drain   = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget on SIGINT/SIGTERM")

		storeDir = flag.String("store", "", "directory for the persistent solution store (empty = no persistence)")
	)
	flag.Parse()
	if err := checkFlags(*workers, *queue, *cache, *timeout, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "adserve:", err)
		os.Exit(2)
	}

	reg := obs.New()
	cfg := serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		RequestTimeout: *timeout,
		Metrics:        reg,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		cfg.Store = st
		fmt.Fprintf(os.Stderr, "adserve: store %s (%d records)\n", *storeDir, st.Len())
	}
	srv := serve.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "adserve: listening on %s (POST /solve, /healthz, /metrics, /debug/dash)\n", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "adserve: %v: draining (budget %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Drain the solve pipeline first so accepted requests finish,
		// then close the listener and idle connections.
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "adserve: drain incomplete: %v\n", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "adserve: http shutdown: %v\n", err)
		}
	}
}

// checkFlags rejects flag values the server would otherwise replace with
// a default or misuse: negative pool, queue or cache sizes (0 keeps its
// documented meaning) and a solve deadline or drain budget that is not
// positive.
func checkFlags(workers, queue, cache int, timeout, drain time.Duration) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"workers", workers}, {"queue", queue}, {"cache", cache}} {
		if f.v < 0 {
			return fmt.Errorf("-%s %d: want 0 or more", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    time.Duration
	}{{"timeout", timeout}, {"drain", drain}} {
		if f.v <= 0 {
			return fmt.Errorf("-%s %v: want a positive duration", f.name, f.v)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adserve:", err)
	os.Exit(1)
}
