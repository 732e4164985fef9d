package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		engines, batch int
		ok             bool
	}{
		{4, 1, true},
		{1, 8, true},
		{0, 1, false},
		{-1, 1, false},
		{4, 0, false},
		{4, -3, false},
	} {
		if err := checkFlags(tc.engines, tc.batch); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d, %d) err = %v, want ok=%t", tc.engines, tc.batch, err, tc.ok)
		}
	}
}
