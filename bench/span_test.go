package main

import "testing"

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "iter", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "setup", StartNS: 10, EndNS: 30, Parent: 0},
		{Name: "run", StartNS: 40, EndNS: 90, Parent: 0},
		{Name: "slice", StartNS: 45, EndNS: 60, Parent: 2},
		{Name: "slice", StartNS: 60, EndNS: 85, Parent: 2},
	}
	want := []int64{100 - 20 - 50, 20, 50 - 15 - 25, 15, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	var sum int64
	for _, d := range got {
		sum += d
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100: nothing may be lost or counted twice", sum)
	}
	by := selfByName(spans)
	if by["slice"] != 40 || by["iter"] != 30 {
		t.Errorf("selfByName = %v", by)
	}
}

// Overlapping or overhanging children must not drive a parent negative:
// only the part of the parent's interval they cover is taken out, once.
func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "p", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 10, EndNS: 60, Parent: 0},
		{Name: "b", StartNS: 40, EndNS: 80, Parent: 0},   // overlaps a by 20
		{Name: "c", StartNS: 90, EndNS: 130, Parent: 0},  // overhangs by 30
		{Name: "d", StartNS: 200, EndNS: 300, Parent: 0}, // entirely outside
	}
	if got := selfTimes(spans)[0]; got != 100-70-10 {
		t.Errorf("parent self = %d, want 20 (covered: 10–80 and 90–100)", got)
	}
}

func TestRecorderNestsAndNilIsInert(t *testing.T) {
	var off *recorder
	off.end(off.begin("x")) // must not panic

	r := newRecorder()
	r.iter = 3
	outer := r.begin("outer")
	inner := r.begin("inner")
	r.end(inner)
	r.end(outer)
	sib := r.begin("sibling")
	r.end(sib)
	if len(r.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(r.spans))
	}
	if r.spans[inner].Parent != outer || r.spans[outer].Parent != -1 || r.spans[sib].Parent != -1 {
		t.Errorf("parents = %d, %d, %d", r.spans[outer].Parent, r.spans[inner].Parent, r.spans[sib].Parent)
	}
	for _, s := range r.spans {
		if s.Iter != 3 || s.EndNS < s.StartNS {
			t.Errorf("span %+v: wrong iteration or negative duration", s)
		}
	}
}
