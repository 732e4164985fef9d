// Package par is the repository's one bounded worker pool. The search's
// candidate generation and portfolio chains, and the experiment sweeps,
// all run their index loops through ForEach.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0..n-1) on a GOMAXPROCS-sized worker pool and waits for
// all of them; with one worker (GOMAXPROCS 1, or n <= 1) it is a plain
// loop on the calling goroutine. Callers write results into index i of a
// pre-sized slice, so output order never depends on which worker
// finishes first.
//
// A panic inside fn is caught on its worker, no index starts after it,
// and the first panic value is re-raised on the caller once every worker
// has stopped — the contract of a sequential loop, minus the indices that
// were already in flight on other workers. An anonymous goroutine never
// takes the process down.
func ForEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any
		panicked  atomic.Bool
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() { panicVal = r })
							panicked.Store(true)
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}
