package dash

import (
	"fmt"
	"sync"
	"testing"
)

func TestEventRingOverflow(t *testing.T) {
	st := NewStore()
	const total = eventCap + 12
	for i := 0; i < total; i++ {
		st.Publish(EvAdmitted, fmt.Sprintf("k%d", i), "m", "")
	}
	evs := st.Recent(0)
	if len(evs) != eventCap {
		t.Fatalf("retained %d events, want ring cap %d", len(evs), eventCap)
	}
	// Oldest retained is #13 (seq 13): events 1..12 were evicted.
	for i, ev := range evs {
		want := uint64(13 + i)
		if ev.Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
		if ev.Solve != fmt.Sprintf("k%d", 12+i) {
			t.Fatalf("evs[%d].Solve = %q, want k%d", i, ev.Solve, 12+i)
		}
	}
	// Recent with a max returns the newest slice, still oldest-first.
	tail := st.Recent(3)
	if len(tail) != 3 || tail[0].Seq != total-2 || tail[2].Seq != total {
		t.Fatalf("Recent(3) = %+v, want seqs %d..%d", tail, total-2, total)
	}
}

func TestConcurrentProducersAndSubscriber(t *testing.T) {
	st := NewStore()
	const producers, perProducer = 8, 200

	ch, cancel := st.Subscribe(producers * perProducer)
	defer cancel()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := fmt.Sprintf("solve-%d", p)
			st.SolveStarted(id, "model", 2)
			for i := 0; i < perProducer; i++ {
				st.Publish(EvExchange, id, "model", "")
				st.SolveProgress(id, []ChainSample{
					{Chain: 0, Iters: i, BestE: float64(i)},
					{Chain: 1, Iters: i, BestE: float64(i), Adopted: i%3 == 0},
				})
			}
			st.SolveFinished(Session{ID: id, Digest: "d"})
		}(p)
	}
	// A concurrent reader exercises snapshot paths under the race
	// detector while producers are live.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			st.StateSnapshot()
			st.Sessions()
			st.Recent(16)
		}
	}()
	wg.Wait()
	<-done
	cancel()

	// Every producer's lifecycle must land in history exactly once.
	sessions := st.Sessions()
	if len(sessions) != producers {
		t.Fatalf("history has %d sessions, want %d", len(sessions), producers)
	}
	for _, sess := range sessions {
		if sess.Digest != "d" || sess.Chains != 2 {
			t.Fatalf("bad session %+v", sess)
		}
	}
	if n := len(st.StateSnapshot().Active); n != 0 {
		t.Fatalf("%d solves still active after finish", n)
	}
	// The subscriber channel was closed by cancel; drain confirms
	// delivered events are well-formed and strictly ordered.
	var lastSeq uint64
	for ev := range ch {
		if ev.Seq <= lastSeq {
			t.Fatalf("subscriber saw non-increasing seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}
}

func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	st := NewStore()
	ch, cancel := st.Subscribe(2) // tiny buffer, never read
	defer cancel()
	for i := 0; i < 50; i++ {
		st.Publish(EvAdmitted, "k", "", "") // must not block
	}
	if len(ch) != 2 {
		t.Fatalf("slow subscriber buffered %d events, want 2", len(ch))
	}
}

func TestSeriesDecimation(t *testing.T) {
	st := NewStore()
	st.SolveStarted("s", "m", 1)
	const total = 1000
	for i := 1; i <= total; i++ {
		st.SolveProgress("s", []ChainSample{{Chain: 0, Iters: i * 100, BestE: float64(i)}})
	}
	snap := st.StateSnapshot()
	if len(snap.Active) != 1 {
		t.Fatalf("want 1 active solve, got %d", len(snap.Active))
	}
	pts := snap.Active[0].Series[0]
	if len(pts) == 0 || len(pts) >= pointCap {
		t.Fatalf("decimated series has %d points, want (0, %d)", len(pts), pointCap)
	}
	// Full extent preserved: first sample survives every halving and the
	// trail stays strictly increasing in iteration.
	if pts[0].Iter != 100 {
		t.Fatalf("first retained point is iter %d, want 100", pts[0].Iter)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Iter <= pts[i-1].Iter {
			t.Fatalf("series not increasing at %d: %+v", i, pts)
		}
	}
	if pts[len(pts)-1].Iter < total*100/4 {
		t.Fatalf("decimation lost the tail: last retained iter %d of %d", pts[len(pts)-1].Iter, total*100)
	}
}

func TestSolveProgressGrowsLazySlots(t *testing.T) {
	st := NewStore()
	st.SolveStarted("s", "m", 2)
	// A chain index past the declared width grows the series instead of
	// being dropped.
	st.SolveProgress("s", []ChainSample{{Chain: 2, Iters: 5, BestE: 1}})
	snap := st.StateSnapshot()
	if got := len(snap.Active[0].Series); got != 3 {
		t.Fatalf("series slots = %d, want lazily-grown 3", got)
	}
	// Unknown ids are ignored, not resurrected.
	st.SolveProgress("ghost", []ChainSample{{Chain: 0}})
	if n := len(st.StateSnapshot().Active); n != 1 {
		t.Fatalf("ghost progress created an active solve (%d active)", n)
	}
}

func TestHistoryRingEviction(t *testing.T) {
	st := NewStore()
	const total = historyCap + 6
	for i := 0; i < total; i++ {
		st.SolveFinished(Session{ID: fmt.Sprintf("s%d", i), DurMS: 1})
	}
	sessions := st.Sessions()
	if len(sessions) != historyCap {
		t.Fatalf("history retained %d, want %d", len(sessions), historyCap)
	}
	// Newest first: the last one finished leads.
	for i, sess := range sessions {
		if want := fmt.Sprintf("s%d", total-1-i); sess.ID != want {
			t.Fatalf("sessions[%d].ID = %q, want %q", i, sess.ID, want)
		}
	}
}

func TestSolveFinishedFillsFromActive(t *testing.T) {
	st := NewStore()
	st.SolveStarted("s", "resnet50", 4)
	st.SolveFinished(Session{ID: "s", Digest: "abc"})
	sessions := st.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("want 1 session, got %d", len(sessions))
	}
	sess := sessions[0]
	if sess.Model != "resnet50" || sess.Chains != 4 || sess.StartMS == 0 {
		t.Fatalf("active-record fill missing: %+v", sess)
	}
	// The failure path publishes EvFailed with the error as detail.
	st.SolveStarted("f", "m", 1)
	st.SolveFinished(Session{ID: "f", Error: "boom"})
	evs := st.Recent(1)
	if evs[0].Type != EvFailed || evs[0].Detail != "boom" {
		t.Fatalf("failure event = %+v, want %s/boom", evs[0], EvFailed)
	}
}

func TestStateSnapshotBestAcrossChains(t *testing.T) {
	st := NewStore()
	st.SolveStarted("s", "m", 2)
	st.SolveProgress("s", []ChainSample{
		{Chain: 0, Iters: 10, BestE: 9.0, BestCV: 0.9},
		{Chain: 1, Iters: 10, BestE: 4.0, BestCV: 0.4},
	})
	a := st.StateSnapshot().Active[0]
	if a.BestE != 4.0 || a.BestCV != 0.4 {
		t.Fatalf("best across chains = (%g, %g), want chain 1's (4, 0.4)", a.BestE, a.BestCV)
	}
}

func TestSubscribeCancelIdempotent(t *testing.T) {
	st := NewStore()
	_, cancel := st.Subscribe(1)
	cancel()
	cancel() // second cancel must not panic (double close)
	if st.Subscribers() != 0 {
		t.Fatalf("subscriber count %d after cancel", st.Subscribers())
	}
}

// Subscribers reports the attached SSE client count (leak checks).
func (s *Store) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}
