package main

import (
	"slices"
	"strings"
	"testing"
)

func TestParseWorkloads(t *testing.T) {
	got, err := parseWorkloads("resnet50,tinyconv")
	if err != nil || !slices.Equal(got, []string{"resnet50", "tinyconv"}) {
		t.Fatalf("parseWorkloads(known) = %v, %v", got, err)
	}
	for _, list := range []string{"nosuchmodel", "resnet50,nosuchmodel", "resnet50,", "resnet50, vgg19"} {
		_, err := parseWorkloads(list)
		if err == nil {
			t.Errorf("parseWorkloads(%q) accepted", list)
			continue
		}
		if !strings.Contains(err.Error(), "resnet50") {
			t.Errorf("parseWorkloads(%q) error does not list the zoo: %v", list, err)
		}
	}
}

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		batch, chains, iters int
		ok                   bool
	}{
		{0, 1, 400, true},
		{8, 4, 1, true},
		{-3, 1, 400, false},
		{0, 0, 400, false},
		{0, -2, 400, false},
		{0, 1, 0, false},
		{0, 1, -5, false},
		// /solve's upper bounds, from the same table.
		{64, 16, 20000, true},
		{65, 1, 400, false},
		{0, 17, 400, false},
		{0, 1, 20001, false},
	} {
		if err := checkFlags(tc.batch, tc.chains, tc.iters); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d, %d, %d) err = %v, want ok=%t", tc.batch, tc.chains, tc.iters, err, tc.ok)
		}
	}
}
