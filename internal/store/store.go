// Package store is the serving layer's persistent solution store: a
// directory of digest-keyed solve records that survives restarts. A
// record keyed by the canonical cache key holds the solve's response
// bytes, so a restarted server answers a repeated request with
// identical bytes without re-solving.
//
// Records are written atomically — encode to a temp file in the store
// directory, fsync, rename — so a crash mid-write leaves either the old
// record or none, never a torn one. Every record embeds a SHA-256 of
// its body; Open and Get skip (rather than serve) anything that fails
// validation, so a corrupt file degrades to a cache miss.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// magic heads every record file; the version digit guards the envelope
// layout, while Record itself evolves by JSON field addition and
// removal. Records written with since-dropped fields (graph_hash, parts,
// saved_unix) still decode: JSON ignores them and the checksum covers
// the stored bytes.
var magic = []byte("ADSTORE1\n")

// Record is one persisted solve.
type Record struct {
	// Key is the serving layer's canonical cache key (hex SHA-256 of
	// the normalized request) — the store's primary key.
	Key string `json:"key"`
	// Model is the human-readable workload name (diagnostics only).
	Model string `json:"model"`
	// Digest is the solution digest served in X-Adserve-Digest.
	Digest string `json:"digest"`
	// Body is the exact response body served for this key.
	Body []byte `json:"body"`
}

// EncodeRecord renders the on-disk envelope: magic, the body's SHA-256
// in hex on its own line, then the JSON record.
func EncodeRecord(r Record) ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("store: encoding record: %w", err)
	}
	sum := sha256.Sum256(body)
	out := make([]byte, 0, len(magic)+65+len(body))
	out = append(out, magic...)
	out = append(out, fmt.Sprintf("%x\n", sum)...)
	return append(out, body...), nil
}

// DecodeRecord parses and validates an envelope: magic, checksum line,
// checksum match, JSON shape, and a non-empty key. Never panics on
// arbitrary input — FuzzStoreRecord holds it to that.
func DecodeRecord(data []byte) (Record, error) {
	var r Record
	if !bytes.HasPrefix(data, magic) {
		return r, fmt.Errorf("store: bad magic")
	}
	rest := data[len(magic):]
	nl := bytes.IndexByte(rest, '\n')
	if nl != 64 {
		return r, fmt.Errorf("store: malformed checksum line")
	}
	wantSum := string(rest[:64])
	body := rest[nl+1:]
	if fmt.Sprintf("%x", sha256.Sum256(body)) != wantSum {
		return r, fmt.Errorf("store: checksum mismatch")
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("store: decoding record: %w", err)
	}
	if !validKey(r.Key) {
		return r, fmt.Errorf("store: record key %q is not lowercase hex", r.Key)
	}
	return r, nil
}

// validKey keeps keys filesystem-safe: non-empty lowercase hex, as the
// serving layer's SHA-256 cache keys are.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Store is a directory of records with an in-memory index of their
// keys. Safe for concurrent use.
type Store struct {
	dir string

	mu    sync.Mutex
	index map[string]struct{}
}

// Open creates dir if needed and indexes every valid record in it.
// Files that fail validation (torn writes from a crash predating the
// atomic rename, manual corruption) are skipped, not fatal.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, index: make(map[string]struct{})}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".rec") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		r, err := DecodeRecord(data)
		if err != nil || r.Key+".rec" != name {
			continue
		}
		s.index[r.Key] = struct{}{}
	}
	return s, nil
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Put persists r atomically, replacing any record under the same key.
func (s *Store) Put(r Record) error {
	if !validKey(r.Key) {
		return fmt.Errorf("store: record key %q is not lowercase hex", r.Key)
	}
	data, err := EncodeRecord(r)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, r.Key+".rec")); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	s.index[r.Key] = struct{}{}
	s.mu.Unlock()
	return nil
}

// Get returns the record under key, if a valid one exists. A record
// that fails validation on read is dropped from the index and reported
// as a miss.
func (s *Store) Get(key string) (Record, bool) {
	s.mu.Lock()
	_, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return Record{}, false
	}
	data, err := os.ReadFile(filepath.Join(s.dir, key+".rec"))
	if err != nil {
		s.drop(key)
		return Record{}, false
	}
	r, err := DecodeRecord(data)
	if err != nil || r.Key != key {
		s.drop(key)
		return Record{}, false
	}
	return r, true
}

func (s *Store) drop(key string) {
	s.mu.Lock()
	delete(s.index, key)
	s.mu.Unlock()
}
