package serve

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/store"
)

// TestStoreReplayAcrossRestart is the persistence contract: after the
// serving process restarts (new Server, new Store handle, same
// directory), a repeated request is answered from the store with the
// byte-identical body — no re-solve — and the hit backfills the LRU so
// the next repeat is an ordinary cache hit.
func TestStoreReplayAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Workers: 1, Store: st1})
	body := `{"model":"tinybranch","sa_iters":120,"seed":3}`
	resp1, b1 := postSolve(t, ts1, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first solve: %d %s", resp1.StatusCode, b1)
	}
	if src := resp1.Header.Get("X-Adserve-Cache"); src != "miss" {
		t.Fatalf("first solve was %q, want miss", src)
	}

	// "Restart": drain the first server, then bring up a second one over
	// a fresh Store handle on the same directory.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts1.Close()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Workers: 1, Store: st2})

	resp2, b2 := postSolve(t, ts2, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replayed solve: %d %s", resp2.StatusCode, b2)
	}
	if src := resp2.Header.Get("X-Adserve-Cache"); src != "store" {
		t.Fatalf("post-restart repeat was %q, want store", src)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("store replay changed the body:\n%s\nvs\n%s", b1, b2)
	}
	if d1, d2 := resp1.Header.Get("X-Adserve-Digest"), resp2.Header.Get("X-Adserve-Digest"); d1 != d2 {
		t.Fatalf("digest %q != %q across restart", d1, d2)
	}
	if s2.m.storeHits.Value() != 1 {
		t.Fatalf("store hits = %d, want 1", s2.m.storeHits.Value())
	}

	// The store hit backfilled the LRU: a second repeat never touches
	// the store again.
	resp3, _ := postSolve(t, ts2, body)
	if src := resp3.Header.Get("X-Adserve-Cache"); src != "hit" {
		t.Fatalf("second repeat was %q, want hit", src)
	}
	if s2.m.storeHits.Value() != 1 {
		t.Fatalf("store hits grew to %d on an LRU-served repeat", s2.m.storeHits.Value())
	}
}

// TestUnsolvableGraph422 submits a well-formed inline graph with nothing
// to execute, an input read only by a concat: the client is at fault, so
// /solve answers 422, and neither the cache nor the store keeps anything
// for it, so a repeat is refused the same way.
func TestUnsolvableGraph422(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Store: st})
	body := `{"graph":{"name":"nowork","layers":[` +
		`{"name":"input","op":"Input","shape":{"hi":4,"wi":4,"ci":2,"ho":4,"wo":4,"co":2}},` +
		`{"name":"cat","op":"Concat","inputs":["input"],` +
		`"shape":{"hi":4,"wi":4,"ci":2,"ho":4,"wo":4,"co":2,"kh":1,"kw":1,"stride":1}}]}}`
	for i := range 2 {
		resp, b := postSolve(t, ts, body)
		if resp.StatusCode != http.StatusUnprocessableEntity || !bytes.Contains(b, []byte("no layer to execute")) {
			t.Fatalf("solve %d: %d %s, want 422 naming the empty execution", i, resp.StatusCode, b)
		}
	}
	if n, m := s.cache.len(), st.Len(); n != 0 || m != 0 {
		t.Errorf("cache holds %d entries and the store %d records for an unsolvable graph", n, m)
	}
}
