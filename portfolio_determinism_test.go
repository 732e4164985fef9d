package atomicflow

import (
	"runtime"
	"testing"
)

// chainsProfile keeps the portfolio determinism tests fast: a small mesh
// and search still cross every pipeline stage, and the digest covers the
// complete solution (schedule, mapping, simulated report).
func chainsOrchestrate(t *testing.T, model string, chains int) string {
	t.Helper()
	g, err := LoadModel(model)
	if err != nil {
		t.Fatal(err)
	}
	hw := DefaultHardware()
	hw.Mesh = NewMesh(4, 4, hw.Mesh.LinkBytes)
	sol, err := Orchestrate(g, Options{
		Seed: 1, SAIters: 80, MaxTilesPerLayer: 64, Chains: chains, Hardware: &hw,
	})
	if err != nil {
		t.Fatalf("%s chains=%d: %v", model, chains, err)
	}
	return sol.Digest()
}

// TestOrchestrateChainsDeterministic pins the end-to-end tentpole
// property: with Chains: 4 the full pipeline digest is identical whether
// the portfolio runs on one OS thread or actually interleaves — goroutine
// scheduling must never leak into the solution.
func TestOrchestrateChainsDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	serial := chainsOrchestrate(t, "tinyresnet", 4)
	runtime.GOMAXPROCS(4)
	parallel := chainsOrchestrate(t, "tinyresnet", 4)
	again := chainsOrchestrate(t, "tinyresnet", 4)
	runtime.GOMAXPROCS(prev)
	if serial != parallel {
		t.Errorf("digest differs across GOMAXPROCS:\n  1: %s\n  4: %s", serial, parallel)
	}
	if parallel != again {
		t.Errorf("digest differs run-to-run at GOMAXPROCS 4:\n  %s\n  %s", parallel, again)
	}
}

// TestOrchestrateChainsOneIsBaseline: the Chains knob at 1 (or unset)
// must not perturb Algorithm 1's one-chain trajectory — the digests the
// determinism matrix pins are exactly the chains=1 digests.
func TestOrchestrateChainsOneIsBaseline(t *testing.T) {
	explicit := chainsOrchestrate(t, "tinyconv", 1)
	unset := chainsOrchestrate(t, "tinyconv", 0)
	if explicit != unset {
		t.Errorf("Chains:1 drifted from the default path:\n  1: %s\n  0: %s", explicit, unset)
	}
}

// TestOrchestrateChainsMatchesMatrix re-runs one model of the pinned
// determinism matrix with an explicit Chains: 1 and requires the golden
// digest: the portfolio plumbing is invisible until the knob is turned.
func TestOrchestrateChainsMatchesMatrix(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64 (have %s)", runtime.GOARCH)
	}
	profile := matrixProfile{name: "full", saIters: 200, maxTiles: 128}
	if testing.Short() {
		profile = matrixProfile{name: "short", saIters: 60, maxTiles: 64, meshSide: 4}
	}
	table := loadDigests(t)[profile.name]
	const model = "tinyconv"
	want, ok := table[model]
	if !ok {
		t.Skipf("no pinned digest for %s/%s", profile.name, model)
	}
	g, err := LoadModel(model)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 1, SAIters: profile.saIters, MaxTilesPerLayer: profile.maxTiles, Chains: 1}
	if profile.meshSide > 0 {
		hw := DefaultHardware()
		hw.Mesh = NewMesh(profile.meshSide, profile.meshSide, hw.Mesh.LinkBytes)
		opt.Hardware = &hw
	}
	sol, err := Orchestrate(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Digest(); got != want {
		t.Errorf("Chains:1 digest drifted from the pinned matrix:\n  got  %s\n  want %s", got, want)
	}
}
