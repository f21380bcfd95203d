package trace

import (
	"slices"
	"strings"
	"testing"
)

func TestRingRetention(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 3; i++ {
		r.Record(Event{Seq: int64(i)})
	}
	if r.Len() != 3 || r.Recorded != 3 {
		t.Fatalf("len=%d recorded=%d", r.Len(), r.Recorded)
	}
	got := r.Events()
	for i, e := range got {
		if e.Seq != int64(i) {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestRingWrapsOldestFirst(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Seq: int64(i)})
	}
	if r.Len() != 4 || r.Recorded != 10 {
		t.Fatalf("len=%d recorded=%d", r.Len(), r.Recorded)
	}
	got := r.Events()
	want := []int64{6, 7, 8, 9}
	for i := range want {
		if got[i].Seq != want[i] {
			t.Fatalf("wrapped order = %v", got)
		}
	}
}

func TestRingTail(t *testing.T) {
	seqs := func(evs []Event) []int64 {
		var out []int64
		for _, e := range evs {
			out = append(out, e.Seq)
		}
		return out
	}
	for _, tc := range []struct {
		added, n int
		want     []int64
	}{
		{0, 3, nil},               // empty ring
		{3, 0, nil},               // n == 0
		{3, -1, nil},              // n < 0
		{3, 2, []int64{1, 2}},     // unwrapped, n < Len
		{3, 9, []int64{0, 1, 2}},  // unwrapped, n > Len
		{10, 2, []int64{8, 9}},    // wrapped, tail contiguous before next
		{10, 3, []int64{7, 8, 9}}, // wrapped, tail crosses the end of buf
		{10, 4, []int64{6, 7, 8, 9}},
		{10, 7, []int64{6, 7, 8, 9}}, // wrapped, n > Len
		{8, 4, []int64{4, 5, 6, 7}},  // wrapped exactly: next == 0
	} {
		r := NewRing(4)
		for i := 0; i < tc.added; i++ {
			r.Record(Event{Seq: int64(i)})
		}
		got := r.Tail(tc.n)
		if !slices.Equal(seqs(got), tc.want) || (tc.want == nil && got != nil) {
			t.Errorf("%d added, Tail(%d) = %v, want %v", tc.added, tc.n, seqs(got), tc.want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Send: "send", Recv: "recv", AQDrop: "aq-drop", AQMark: "aq-mark",
	} {
		if k.String() != want {
			t.Fatalf("%d = %q", k, k.String())
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind string")
	}
}

func TestRingString(t *testing.T) {
	r := NewRing(2)
	r.Record(Event{})
	if !strings.Contains(r.String(), "1 retained") {
		t.Fatalf("String() = %q", r.String())
	}
}
