package atomicflow

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestOrchestrateCancelled pins the facade's cancellation contract: a
// context cancelled before (or during) the search aborts the pipeline
// with an error wrapping context.Canceled, and a deadline in the past
// wraps context.DeadlineExceeded.
func TestOrchestrateCancelled(t *testing.T) {
	g, err := LoadModel("tinyconv")
	if err != nil {
		t.Fatal(err)
	}
	hw := smallHW()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hw.Ctx = ctx
	if _, err := Orchestrate(g, Options{Hardware: &hw}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	hw.Ctx = dctx
	if _, err := Orchestrate(g, Options{Hardware: &hw}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestOrchestratePromptCancel starts a search on a large workload and
// cancels mid-flight: Orchestrate must return well before the ~multi-
// second uncancelled search would.
func TestOrchestratePromptCancel(t *testing.T) {
	g, err := LoadModel("nasnet")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	hw := DefaultHardware()
	hw.Ctx = ctx
	start := time.Now()
	_, err = Orchestrate(g, Options{Hardware: &hw})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Uncancelled, nasnet takes ~700ms+; prompt abort should be far
	// under that even on a loaded machine.
	if elapsed > 500*time.Millisecond {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
}

// TestOrchestrateContextNoEffect guards determinism: supplying an
// uncancelled context must not perturb the solution.
func TestOrchestrateContextNoEffect(t *testing.T) {
	g, err := LoadModel("tinyresnet")
	if err != nil {
		t.Fatal(err)
	}
	hw := smallHW()
	plain, err := Orchestrate(g, Options{Hardware: &hw, SAIters: 80})
	if err != nil {
		t.Fatal(err)
	}
	hw2 := smallHW()
	hw2.Ctx = context.Background()
	withCtx, err := Orchestrate(g, Options{Hardware: &hw2, SAIters: 80})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Digest() != withCtx.Digest() {
		t.Errorf("context changed the solution: %s vs %s", plain.Digest(), withCtx.Digest())
	}
}

// TestOrchestrateHardwareCtx: a context set only on the hardware bounds
// the whole pipeline, not just the simulator. Cancelled up front, it
// must stop Orchestrate at the post-search check instead of paying for
// the search and the schedule first.
func TestOrchestrateHardwareCtx(t *testing.T) {
	g, err := LoadModel("tinyresnet")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hw := smallHW()
	hw.Ctx = ctx
	_, err = Orchestrate(g, Options{Hardware: &hw})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "orchestration abandoned") {
		t.Errorf("err = %v, want the post-search abandonment error", err)
	}
}
