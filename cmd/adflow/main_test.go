package main

import (
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
}
