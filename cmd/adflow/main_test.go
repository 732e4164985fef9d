package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	af "github.com/atomic-dataflow/atomicflow"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		engines, batch, chains, iters int
		mode, df                      string
		ok                            bool
		wantMode                      af.ScheduleMode
		wantDF                        af.Dataflow
	}{
		{8, 1, 1, 400, "greedy", "kc", true, af.ModeGreedy, af.KCPartition},
		{1, 16, 4, 1, "dp", "yx", true, af.ModeDP, af.YXPartition},
		{0, 1, 1, 400, "greedy", "kc", false, 0, 0},
		{-1, 1, 1, 400, "greedy", "kc", false, 0, 0},
		{8, 0, 1, 400, "greedy", "kc", false, 0, 0},
		{8, -3, 1, 400, "greedy", "kc", false, 0, 0},
		{8, 1, 0, 400, "greedy", "kc", false, 0, 0},
		{8, 1, -2, 400, "greedy", "kc", false, 0, 0},
		{8, 1, 1, 0, "greedy", "kc", false, 0, 0},
		{8, 1, 1, -5, "greedy", "kc", false, 0, 0},
		{8, 1, 1, 400, "nosuch", "kc", false, 0, 0},
		{8, 1, 1, 400, "", "kc", false, 0, 0},
		{8, 1, 1, 400, "dp", "zz", false, 0, 0},
	} {
		m, df, err := checkFlags(tc.engines, tc.batch, tc.chains, tc.iters, tc.mode, tc.df)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d, %d, %d, %d, %q, %q) err = %v, want ok=%t",
				tc.engines, tc.batch, tc.chains, tc.iters, tc.mode, tc.df, err, tc.ok)
			continue
		}
		if tc.ok && (m != tc.wantMode || df != tc.wantDF) {
			t.Errorf("checkFlags(%d, %d, %d, %d, %q, %q) = %v, %v, want %v, %v",
				tc.engines, tc.batch, tc.chains, tc.iters, tc.mode, tc.df, m, df, tc.wantMode, tc.wantDF)
		}
	}
	// The clock is checked on the assembled hardware: a NaN -freq once
	// printed "NaN ms" and +Inf "0.000 ms", both with exit status 0.
	for _, freq := range []string{"NaN", "+Inf", "0", "-500"} {
		fs := flag.NewFlagSet("adflow", flag.ContinueOnError)
		f := defineFlags(fs)
		if err := fs.Parse([]string{"-freq", freq}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.options(); err == nil || !strings.Contains(err.Error(), "FreqMHz") {
			t.Errorf("-freq %s: options() = %v, want an error naming FreqMHz", freq, err)
		}
	}
}

// TestDefaultFlagsMatchLibrary pins adflow's defaults to the library's:
// the options built from an empty command line solve tinyconv to the same
// digest as Orchestrate with zero Options on the default hardware.
func TestDefaultFlagsMatchLibrary(t *testing.T) {
	fs := flag.NewFlagSet("adflow", flag.ContinueOnError)
	f := defineFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	opts, err := f.options()
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
