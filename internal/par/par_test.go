package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEach pins the pool's contract: every index runs exactly once, a
// single worker is a plain in-order loop, the first panic value is
// re-raised on the caller, and no index starts after a panic.
func TestForEach(t *testing.T) {
	t.Run("every index once", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		hits := make([]atomic.Int32, 100)
		ForEach(len(hits), func(i int) { hits[i].Add(1) })
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("index %d ran %d times, want exactly once", i, n)
			}
		}
	})

	t.Run("sequential at GOMAXPROCS 1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		// An unsynchronized append: the race detector flags any second
		// goroutine, and the order check flags any reordering.
		var order []int
		ForEach(10, func(i int) { order = append(order, i) })
		for i, got := range order {
			if got != i {
				t.Fatalf("order = %v, want 0..9 in sequence", order)
			}
		}
		if len(order) != 10 {
			t.Fatalf("ran %d indices, want 10", len(order))
		}
	})

	t.Run("panic re-raised, nothing starts after it", func(t *testing.T) {
		const workers = 4
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		var (
			inFlight, ran, late atomic.Int32
			boom                atomic.Bool
		)
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the first panic value", r)
			}
			if n := late.Load(); n != 0 {
				t.Errorf("%d indices started after the panic", n)
			}
			// Only the indices claimed before the panic ran: one per worker.
			if n := ran.Load(); n != workers {
				t.Errorf("ran %d indices, want %d", n, workers)
			}
		}()
		ForEach(64, func(i int) {
			if boom.Load() {
				late.Add(1)
			}
			ran.Add(1)
			if i == 0 {
				// Panic only once every other worker holds an index, so
				// none of them is between indices when it happens.
				for inFlight.Load() < workers-1 {
					runtime.Gosched()
				}
				boom.Store(true)
				panic("boom")
			}
			inFlight.Add(1)
			for !boom.Load() {
				runtime.Gosched()
			}
			// Give the panicking worker time to record the panic before
			// this one returns for its next index.
			time.Sleep(20 * time.Millisecond)
		})
		t.Fatal("ForEach returned normally despite a panicking fn")
	})
}
