package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against the named testdata file, rewriting it under
// -update. Pinning exporter bytes keeps the formats stable for downstream
// consumers (Perfetto, plot scripts) and doubles as a whole-pipeline
// determinism check: the bytes embed every simulated cycle count.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file (run with -update to accept):\ngot:  %.200s\nwant: %.200s",
			name, got, want)
	}
}

func TestPerfettoGolden(t *testing.T) {
	c, g, _ := collect(t, "tinybranch", 1)
	var buf bytes.Buffer
	if err := c.WritePerfetto(&buf, g); err != nil {
		t.Fatal(err)
	}
	golden(t, "perfetto_tinybranch.json", buf.Bytes())
}
