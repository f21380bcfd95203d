package trace

import (
	"strings"
	"testing"
)

func TestRingRetention(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 3; i++ {
		r.Add(Event{Seq: int64(i)})
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
		r.Add(Event{Seq: int64(i)})
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

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Send: "send", Recv: "recv", AQDrop: "aq-drop", AQMark: "aq-mark", QueueDrop: "q-drop",
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
	r.Add(Event{})
	if !strings.Contains(r.String(), "1 retained") {
		t.Fatalf("String() = %q", r.String())
	}
}
