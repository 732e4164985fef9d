package main

import (
	"bytes"
	"crypto/md5"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	af "github.com/atomic-dataflow/atomicflow"
	"github.com/atomic-dataflow/atomicflow/internal/knob"
)

// parseFlags parses args as adflow's command line.
func parseFlags(t *testing.T, args ...string) *flags {
	t.Helper()
	fs := flag.NewFlagSet("adflow", flag.ContinueOnError)
	f := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// optionsOf parses args as adflow's command line and builds its options:
// a flag that does not parse (an unknown -mode or -dataflow) fails like
// one options rejects, and main exits 2 on either.
func optionsOf(args []string) (af.Options, error) {
	fs := flag.NewFlagSet("adflow", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return af.Options{}, err
	}
	return f.options()
}

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		args     string
		ok       bool
		wantMode af.ScheduleMode
		wantDF   af.Dataflow
	}{
		{"-engines 8 -sa-iters 400 -mode greedy", true, af.ModeGreedy, af.KCPartition},
		{"-engines 1 -batch 16 -chains 4 -sa-iters 1 -dataflow yxp", true, af.ModeDP, af.YXPartition},
		{"-engines 32 -batch 64 -chains 16 -sa-iters 20000 -dataflow kcp -mode dp", true, af.ModeDP, af.KCPartition},
		{"-engines 0", false, 0, 0},
		{"-engines -1", false, 0, 0},
		{"-batch 0", false, 0, 0},
		{"-batch -3", false, 0, 0},
		{"-chains 0", false, 0, 0},
		{"-chains -2", false, 0, 0},
		{"-sa-iters 0", false, 0, 0},
		{"-sa-iters -5", false, 0, 0},
		{"-mode nosuch", false, 0, 0},
		{"-mode=", false, 0, 0},
		{"-dataflow zz", false, 0, 0},
		// The spellings /solve reads are the only ones.
		{"-dataflow kc", false, 0, 0},
		{"-dataflow yx", false, 0, 0},
		{"-dataflow KC-P", false, 0, 0},
		// -engine-id names an engine of the mesh to list, and only
		// -emit lists one.
		{"-emit -engine-id 0", true, af.ModeDP, af.KCPartition},
		{"-emit -engine-id -1", true, af.ModeDP, af.KCPartition},
		{"-emit -engines 4 -engine-id 15", true, af.ModeDP, af.KCPartition},
		{"-emit -engine-id -2", false, 0, 0},
		{"-emit -engines 4 -engine-id 16", false, 0, 0},
		{"-engine-id 0", false, 0, 0},
		// -dot and -export print the workload instead of solving it, so
		// each rejects the other and every flag of the solve's output.
		{"-dot", true, af.ModeDP, af.KCPartition},
		{"-export -model pnascell", true, af.ModeDP, af.KCPartition},
		{"-dot -export", false, 0, 0},
		{"-dot -emit", false, 0, 0},
		{"-export -emit", false, 0, 0},
		{"-dot -baselines", false, 0, 0},
		{"-export -baselines", false, 0, 0},
		{"-export -trace t.json", false, 0, 0},
		{"-dot -metrics-json m.json", false, 0, 0},
	} {
		opts, err := optionsOf(strings.Fields(tc.args))
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%t", tc.args, err, tc.ok)
			continue
		}
		if tc.ok && (opts.Mode != tc.wantMode || opts.Hardware.Dataflow != tc.wantDF) {
			t.Errorf("%s: mode %v, dataflow %v, want %v, %v", tc.args, opts.Mode, opts.Hardware.Dataflow, tc.wantMode, tc.wantDF)
		}
	}
	// /solve's upper bounds hold on the command line too: a 64x64 mesh's
	// route table alone is ~2.9 GB. The error names the flag, and main
	// exits 2 on it.
	for _, args := range []string{"-engines 33", "-batch 65", "-chains 17", "-sa-iters 20001", "-buffer 0", "-buffer 1073741825"} {
		_, err := optionsOf(strings.Fields(args))
		if name := strings.Fields(args)[0]; err == nil || !strings.Contains(err.Error(), name+" ") {
			t.Errorf("%s: options() = %v, want an error naming %s", args, err, name)
		}
	}
	// The clock is checked on the assembled hardware: a NaN -freq once
	// printed "NaN ms" and +Inf "0.000 ms", both with exit status 0.
	for _, freq := range []string{"NaN", "+Inf", "0", "-500"} {
		if _, err := parseFlags(t, "-freq", freq).options(); err == nil || !strings.Contains(err.Error(), "FreqMHz") {
			t.Errorf("-freq %s: options() = %v, want an error naming FreqMHz", freq, err)
		}
	}
}

// TestEmitListing pins the -emit listing of a small solve: the engine-0
// stream of tinyresnet on a 4x4 mesh after a 300-iteration Greedy solve,
// and the program statistics line.
func TestEmitListing(t *testing.T) {
	f := parseFlags(t, "-model", "tinyresnet", "-engines", "4", "-sa-iters", "300", "-mode", "greedy", "-emit", "-engine-id", "0")
	opts, err := f.options()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(f, opts, &out); err != nil {
		t.Fatal(err)
	}
	const stats = "program:   13599 instructions, 911 computes, 4830 sends/4830 recvs, 910 evicts, "
	if !strings.Contains(out.String(), stats) {
		t.Errorf("output lacks %q:\n%.600s", stats, out.String())
	}
	i := strings.Index(out.String(), "; engine 0")
	if i < 0 {
		t.Fatalf("no engine 0 listing in\n%.600s", out.String())
	}
	const want = "a08df96462e9a391c1eaa88324ec89ca"
	if got := fmt.Sprintf("%x", md5.Sum([]byte(out.String()[i:]))); got != want {
		t.Errorf("engine 0 listing md5 %s, want %s", got, want)
	}
}

// TestExportRoundTrip checks that -export writes a document -model-file
// reads back to the same workload: both solve to the same digest.
func TestExportRoundTrip(t *testing.T) {
	f := parseFlags(t, "-model", "pnascell", "-export")
	opts, err := f.options()
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := run(f, opts, &doc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pnascell.json")
	if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var digests []string
	for _, args := range [][]string{{"-model", "pnascell"}, {"-model-file", path}} {
		f := parseFlags(t, append(args, "-sa-iters", "100")...)
		opts, err := f.options()
		if err != nil {
			t.Fatal(err)
		}
		g, err := f.graph()
		if err != nil {
			t.Fatal(err)
		}
		sol, err := af.Orchestrate(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, sol.Digest())
	}
	if digests[0] != digests[1] {
		t.Errorf("-model-file of the -export document solves to %s, -model pnascell to %s", digests[1], digests[0])
	}
}

// TestDefaultFlagsMatchLibrary pins adflow's defaults to the library's:
// the options built from an empty command line solve tinyconv to the same
// digest as Orchestrate with zero Options on the default hardware.
func TestDefaultFlagsMatchLibrary(t *testing.T) {
	opts, err := parseFlags(t).options()
	if err != nil {
		t.Fatal(err)
	}
	// tinyconv's search converges well inside 400 iterations, so the
	// digest alone cannot see the iteration budget: pin the search
	// fields to the library's documented defaults too.
	if opts.Mode != af.ModeDP || opts.SAIters != 600 || opts.Seed != 1 || opts.Chains != 1 || opts.Batch != 1 {
		t.Errorf("default flags give mode %v, sa-iters %d, seed %d, chains %d, batch %d; want dp, 600, 1, 1, 1",
			opts.Mode, opts.SAIters, opts.Seed, opts.Chains, opts.Batch)
	}
	// The hardware an empty command line builds is DefaultHardware, field
	// by field; the mesh is a pointer, so it is compared by shape.
	got, want := *opts.Hardware, af.DefaultHardware()
	if got.Mesh.W != want.Mesh.W || got.Mesh.H != want.Mesh.H || got.Mesh.LinkBytes != want.Mesh.LinkBytes {
		t.Errorf("default-flag mesh %dx%d link %d, want %dx%d link %d",
			got.Mesh.W, got.Mesh.H, got.Mesh.LinkBytes, want.Mesh.W, want.Mesh.H, want.Mesh.LinkBytes)
	}
	got.Mesh, want.Mesh = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("default-flag hardware %+v, want DefaultHardware() %+v", got, want)
	}
	g, err := af.LoadModel("tinyconv")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := af.Orchestrate(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	hw := af.DefaultHardware()
	lib, err := af.Orchestrate(g, af.Options{Hardware: &hw})
	if err != nil {
		t.Fatal(err)
	}
	if cli.Digest() != lib.Digest() {
		t.Errorf("default-flag digest %s != library default %s", cli.Digest(), lib.Digest())
	}
}

// TestRunTrace checks -trace: a written trace is announced and holds the
// document, and a trace that cannot be written fails the run without
// announcing it.
func TestRunTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	for _, tc := range []struct {
		path string
		ok   bool
	}{{path, true}, {"/dev/full", false}} {
		if tc.path == "/dev/full" {
			if _, err := os.Stat(tc.path); err != nil {
				t.Skip("no /dev/full on this system")
			}
		}
		f := parseFlags(t, "-model", "tinyconv", "-engines", "2", "-trace", tc.path)
		opts, err := f.options()
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		err = run(f, opts, &out)
		announced := strings.Contains(out.String(), "trace written to "+tc.path)
		if tc.ok {
			if err != nil || !announced {
				t.Fatalf("-trace %s: error %v, announced %v:\n%s", tc.path, err, announced, out.String())
			}
			if doc, err := os.ReadFile(tc.path); err != nil || !bytes.Contains(doc, []byte("traceEvents")) {
				t.Errorf("-trace %s: no trace document written (%v)", tc.path, err)
			}
		} else if err == nil || announced {
			t.Errorf("-trace %s: error %v, announced %v; want a failed run", tc.path, err, announced)
		}
	}
}

// FuzzFlags feeds random argument vectors through defineFlags and
// options: no command line may panic, and one that is accepted must be
// within the knob table's bounds and build hardware that validates.
func FuzzFlags(f *testing.F) {
	for _, args := range []string{
		"",
		"-model resnet50 -baselines",
		"-engines 4 -batch 8 -chains 2 -sa-iters 100 -mode greedy -dataflow yxp",
		"-emit -engines 2 -engine-id 3",
		"-engines 33 -batch 65",
		"-buffer -1 -pes 0 -freq NaN",
		"-dot -export",
		"-seed -9223372036854775808 -mode=",
	} {
		f.Add(args)
	}
	f.Fuzz(func(t *testing.T, line string) {
		opts, err := optionsOf(strings.Fields(line))
		if err != nil {
			return
		}
		hw := opts.Hardware
		for _, c := range []struct {
			k knob.Int[int]
			v int
		}{
			{knob.Batch, opts.Batch}, {knob.SAIters, opts.SAIters}, {knob.Chains, opts.Chains},
			{knob.MeshW, hw.Mesh.W}, {knob.MeshH, hw.Mesh.H}, {knob.BufferBytes, hw.Engine.BufferBytes},
		} {
			if c.v < c.k.Min || c.v > c.k.Max {
				t.Errorf("%q: accepted %s %d outside [%d,%d]", line, c.k.JSON, c.v, c.k.Min, c.k.Max)
			}
		}
		if err := hw.Validate(); err != nil {
			t.Errorf("%q: accepted hardware that does not validate: %v", line, err)
		}
	})
}
