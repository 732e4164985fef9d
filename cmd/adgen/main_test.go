package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		engines, batch, saIters, engineID int
		ok                                bool
	}{
		{4, 1, 300, 0, true},
		{1, 8, 1, -1, true},
		{4, 1, 300, 15, true},
		{0, 1, 300, 0, false},
		{-1, 1, 300, 0, false},
		{4, 0, 300, 0, false},
		{4, -3, 300, 0, false},
		{4, 1, 0, 0, false},
		{4, 1, -5, 0, false},
		{4, 1, 300, -2, false},
	} {
		if err := checkFlags(tc.engines, tc.batch, tc.saIters, tc.engineID); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d, %d, %d, %d) err = %v, want ok=%t",
				tc.engines, tc.batch, tc.saIters, tc.engineID, err, tc.ok)
		}
	}
}
