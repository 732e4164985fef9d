package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func rec(key string) Record {
	return Record{
		Key:    key,
		Model:  "tinyconv",
		Digest: "d-" + key,
		Body:   []byte(`{"digest":"` + key + `"}`),
	}
}

// legacyEnvelope is a record file as earlier builds wrote it, with the
// since-dropped graph_hash, parts and saved_unix fields; its body is
// `{"digest":"ab12"}`.
const legacyEnvelope = "ADSTORE1\n" +
	"2193a2350dade732907ebf2203f4d7c2f09b27fd239cc892ddfae8a1640bab17\n" +
	`{"key":"ab12","graph_hash":"g1","model":"tinyconv","digest":"d-ab12",` +
	`"body":"eyJkaWdlc3QiOiJhYjEyIn0=","parts":{"1":{"Hp":2,"Wp":3,"Cop":4}},"saved_unix":100}`

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := rec("ab12")
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("ab12")
	if !ok {
		t.Fatal("record missing after Put")
	}
	if !bytes.Equal(got.Body, r.Body) || got.Digest != r.Digest || got.Model != r.Model {
		t.Fatalf("round trip mutated the record: %+v", got)
	}
	if _, ok := s.Get("cd34"); ok {
		t.Fatal("hit on an absent key")
	}
}

func TestReopenServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := rec("ab12")
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store indexed %d records, want 1", s2.Len())
	}
	got, ok := s2.Get("ab12")
	if !ok || !bytes.Equal(got.Body, r.Body) {
		t.Fatalf("reopened store does not serve identical bytes: ok=%v body=%q", ok, got.Body)
	}
}

func TestCorruptRecordsSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(rec("ab12")); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the stored body: checksum validation must reject it.
	path := filepath.Join(dir, "ab12.rec")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh Open skips it; a Get through the old index drops it.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Fatalf("corrupt record indexed")
	}
	if _, ok := s.Get("ab12"); ok {
		t.Fatal("corrupt record served")
	}
	if s.Len() != 0 {
		t.Fatal("corrupt record kept in the index after a failed Get")
	}
	// Torn temp files and stray content are ignored too.
	os.WriteFile(filepath.Join(dir, ".put-123"), []byte("torn"), 0o644)
	os.WriteFile(filepath.Join(dir, "zz.rec"), []byte("junk"), 0o644)
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 0 {
		t.Fatalf("stray files indexed: %d", s3.Len())
	}
}

func TestRecordKeyMustMatchFilename(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(rec("ab12")); err != nil {
		t.Fatal(err)
	}
	// A record copied under another name must not be served for that name.
	data, _ := os.ReadFile(filepath.Join(dir, "ab12.rec"))
	os.WriteFile(filepath.Join(dir, "cd34.rec"), data, 0o644)
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("cd34"); ok {
		t.Fatal("mismatched record served under the wrong key")
	}
}

func TestPutRejectsBadKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "ABCD", "xyz!", "no/slash"} {
		if err := s.Put(rec(key)); err == nil {
			t.Errorf("key %q accepted", key)
		}
	}
}

// TestLegacyRecordReplays: a record file written with the dropped
// graph_hash, parts and saved_unix fields still indexes on Open and
// serves its body byte for byte, so an existing store directory keeps
// replaying.
func TestLegacyRecordReplays(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ab12.rec"), []byte(legacyEnvelope), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("legacy record not indexed: %d records", s.Len())
	}
	got, ok := s.Get("ab12")
	if !ok {
		t.Fatal("legacy record not served")
	}
	if want := []byte(`{"digest":"ab12"}`); !bytes.Equal(got.Body, want) {
		t.Fatalf("legacy body = %q, want %q", got.Body, want)
	}
	if got.Digest != "d-ab12" || got.Model != "tinyconv" {
		t.Fatalf("legacy record mutated: %+v", got)
	}
}

func TestPutReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(rec("ab12")); err != nil {
		t.Fatal(err)
	}
	r2 := rec("ab12")
	r2.Body = []byte(`{"digest":"v2"}`)
	if err := s.Put(r2); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("ab12")
	if !ok || !bytes.Equal(got.Body, r2.Body) {
		t.Fatalf("replacement not served: %q", got.Body)
	}
	// No temp droppings left behind.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != "ab12.rec" {
			t.Errorf("stray file %q in store dir", e.Name())
		}
	}
}
