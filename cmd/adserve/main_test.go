package main

import (
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	const minute = time.Minute
	for _, tc := range []struct {
		workers, queue, cache int
		timeout, drain        time.Duration
		ok                    bool
	}{
		{0, 64, 256, 2 * minute, 30 * time.Second, true},
		{4, 0, 0, time.Second, time.Millisecond, true},
		{-1, 64, 256, 2 * minute, minute, false},
		{0, -1, 256, 2 * minute, minute, false},
		{0, 64, -1, 2 * minute, minute, false},
		{0, 64, 256, 0, minute, false},
		{0, 64, 256, -time.Second, minute, false},
		{0, 64, 256, 2 * minute, 0, false},
		{0, 64, 256, 2 * minute, -minute, false},
	} {
		err := checkFlags(tc.workers, tc.queue, tc.cache, tc.timeout, tc.drain)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d, %d, %d, %v, %v) err = %v, want ok=%t",
				tc.workers, tc.queue, tc.cache, tc.timeout, tc.drain, err, tc.ok)
		}
	}
}
