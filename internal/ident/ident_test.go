package ident

import "testing"

func TestDenseHeuristic(t *testing.T) {
	cases := []struct {
		maxID, count int
		want         bool
	}{
		{0, 0, false},       // empty table: nothing to index
		{-1, 5, false},      // no IDs seen
		{4, 4, true},        // AQs 1..4
		{63, 1, true},       // within the fixed slack
		{64, 1, true},       // 4*1+64 = 68 >= 65
		{1000, 2, false},    // sparse: two AQs at high IDs
		{4095, 1024, true},  // exactly 4x
		{4159, 1024, true},  // 4x + slack boundary: maxID+1 == 4*count+64
		{4160, 1024, false}, // just past it
		{1 << 20, 1 << 18, true},
		{1 << 20, 100, false},
	}
	for _, c := range cases {
		if got := Dense(c.maxID, c.count); got != c.want {
			t.Errorf("Dense(%d, %d) = %v, want %v", c.maxID, c.count, got, c.want)
		}
	}
}
