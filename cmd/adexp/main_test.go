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
