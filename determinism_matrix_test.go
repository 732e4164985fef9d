package atomicflow

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"sort"
	"testing"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/zoo_digests.json from the current pipeline")

var dashProgress = flag.Bool("dash-progress", false,
	"run the matrix with a dashboard progress hook attached; the hook is "+
		"observation-only, so every pinned digest must stay byte-identical")

// matrixProfile is one (search, hardware) size the matrix is pinned at.
// Both profiles run the complete anneal → schedule → map → simulate
// pipeline; "short" only shrinks the mesh and the search so `go test
// -short` stays fast, and "full" keeps the paper's 8x8 platform with a
// search budget that keeps the race-detector job affordable.
type matrixProfile struct {
	name     string
	saIters  int
	maxTiles int
	meshSide int // 0 = default 8x8
	batch    int // 0 = default 1
}

func (p matrixProfile) run(t *testing.T, model string) *Solution {
	t.Helper()
	g, err := LoadModel(model)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 1, SAIters: p.saIters, MaxTilesPerLayer: p.maxTiles,
		Batch: p.batch}
	if *dashProgress {
		// The hook the serving layer's dashboard installs, reduced to its
		// essence: it observes every sample batch (exactly what serve's
		// adapter does) and must not move a single digest.
		opt.Progress = func(samples []SearchSample) {
			for _, s := range samples {
				_ = s.CV()
			}
		}
	}
	if p.meshSide > 0 {
		hw := DefaultHardware()
		hw.Mesh = NewMesh(p.meshSide, p.meshSide, hw.Mesh.LinkBytes)
		opt.Hardware = &hw
	}
	sol, err := Orchestrate(g, opt)
	if err != nil {
		t.Fatalf("%s: %v", model, err)
	}
	if err := sol.Check(); err != nil {
		t.Fatalf("%s: %v", model, err)
	}
	return sol
}

// TestZooDeterminismMatrix runs every bundled model through the full
// pipeline at a fixed seed and pins the digest of the resulting
// solution. Any future change that perturbs atom generation, schedule,
// mapping, buffering or simulation fails this test loudly instead of
// silently shifting every figure the repo reproduces. Intentional model
// changes regenerate the table with:
//
//	go test -run TestZooDeterminismMatrix -update-digests
//	go test -run TestZooDeterminismMatrix -update-digests -short
//
// The pinned values are produced on amd64; other architectures may fuse
// floating-point operations differently, so they check run-to-run
// determinism instead of the golden bytes.
func TestZooDeterminismMatrix(t *testing.T) {
	profile := matrixProfile{name: "full", saIters: 200, maxTiles: 128}
	if testing.Short() {
		profile = matrixProfile{name: "short", saIters: 60, maxTiles: 64, meshSide: 4}
	}

	names := ModelNames()
	sort.Strings(names)
	profile.check(t, names)
}

// batchDigestModels are the models pinned at batch 3 (short profile):
// the two paper-scale graphs, a depthwise-separable one and a branchy
// toy, so the replicated-sample atom DAG and the scheduler's multi-sample
// frontier (rule 4) are covered by golden bytes, not just batch 1.
var batchDigestModels = []string{"inceptionv3", "mobilenetv2", "resnet50", "tinybranch"}

// TestZooBatchDigests pins the batch-3 digests beside the batch-1
// matrix under the "short-b3" key. Regenerate with:
//
//	go test -run TestZooBatchDigests -update-digests
func TestZooBatchDigests(t *testing.T) {
	profile := matrixProfile{name: "short-b3", saIters: 60, maxTiles: 64, meshSide: 4, batch: 3}
	profile.check(t, batchDigestModels)
}

// check runs each model at the profile and compares its digest with the
// one pinned under the profile's name, or re-pins them all with
// -update-digests.
func (p matrixProfile) check(t *testing.T, models []string) {
	golden := loadDigests(t)
	table := golden[p.name]
	got := make(map[string]string, len(models))
	for _, model := range models {
		t.Run(model, func(t *testing.T) {
			digest := p.run(t, model).Digest()
			got[model] = digest
			if *updateDigests {
				return
			}
			want, ok := table[model]
			if !ok {
				t.Fatalf("no pinned digest for %s/%s — run with -update-digests", p.name, model)
			}
			if runtime.GOARCH != "amd64" {
				// Pinned on amd64; elsewhere assert the weaker property.
				if again := p.run(t, model).Digest(); again != digest {
					t.Errorf("nondeterministic on %s: %s vs %s", runtime.GOARCH, digest, again)
				}
				t.Skipf("golden digests are pinned on amd64 (have %s)", runtime.GOARCH)
			}
			if digest != want {
				t.Errorf("solution digest drifted:\n  got  %s\n  want %s\n"+
					"If this change is intentional, regenerate with -update-digests.",
					digest, want)
			}
		})
	}

	if *updateDigests {
		golden[p.name] = got
		saveDigests(t, golden)
		t.Logf("rewrote testdata/zoo_digests.json (%s profile, %d models)", p.name, len(got))
	}
}

func loadDigests(t *testing.T) map[string]map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/zoo_digests.json")
	if os.IsNotExist(err) {
		return map[string]map[string]string{}
	}
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func saveDigests(t *testing.T, m map[string]map[string]string) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/zoo_digests.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
