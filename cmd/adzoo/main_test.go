package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		model       string
		dot, export bool
		ok          bool
	}{
		{"", false, false, true},
		{"pnascell", true, false, true},
		{"pnascell", false, true, true},
		{"resnet50", false, false, true},
		{"", true, false, false},
		{"", false, true, false},
		{"", true, true, false},
	} {
		if err := checkFlags(tc.model, tc.dot, tc.export); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%q, %t, %t) err = %v, want ok=%t", tc.model, tc.dot, tc.export, err, tc.ok)
		}
	}
}
