package store

import (
	"bytes"
	"testing"
)

// FuzzStoreRecord holds DecodeRecord to its contract on arbitrary
// bytes: never panic, reject anything whose checksum does not match,
// and round-trip what it accepts.
func FuzzStoreRecord(f *testing.F) {
	good, err := EncodeRecord(Record{
		Key: "ab12", Model: "tinyconv", Digest: "d", Body: []byte(`{"x":1}`),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(legacyEnvelope))       // record with since-dropped fields
	f.Add(good[:len(good)-3])           // truncated record
	f.Add(good[:len(magic)+10])         // truncated checksum line
	f.Add([]byte("ADSTORE1\n"))         // magic only
	f.Add([]byte("NOTMAGIC\nxxxx"))     // bad magic
	bad := append([]byte(nil), good...) // bad SHA-256
	bad[len(bad)-1] ^= 0xff
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		re, err := EncodeRecord(r)
		if err != nil {
			t.Fatalf("re-encoding an accepted record: %v", err)
		}
		rr, err := DecodeRecord(re)
		if err != nil {
			t.Fatalf("round-tripping an accepted record: %v", err)
		}
		if rr.Key != r.Key || rr.Digest != r.Digest || !bytes.Equal(rr.Body, r.Body) {
			t.Fatalf("round trip mutated the record")
		}
	})
}
