package sim

import "testing"

// TestSeqDomainMatchesNextSeq: looking a name up again finds the same
// sequence — a handle taken once and one taken at every draw give the same
// values — and a second name does not disturb it.
func TestSeqDomainMatchesNextSeq(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	d := a.SeqDomain("x")
	for i := 0; i < 5; i++ {
		if av, bv := a.NextIn(d), b.NextIn(b.SeqDomain("x")); av != bv {
			t.Fatalf("draw %d: held handle gave %d, fresh lookup gave %d", i, av, bv)
		}
	}
	a.NextIn(a.SeqDomain("y"))
	if v := a.NextIn(a.SeqDomain("x")); v != 6 {
		t.Fatalf("domain x disturbed by domain y: next = %d, want 6", v)
	}
}

// TestNewClusterNeedsOneEngine: a cluster is one engine; asking for none
// or for several is a caller error, not a silently different run.
func TestNewClusterNeedsOneEngine(t *testing.T) {
	for _, n := range []int{0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCluster(%d) did not panic", n)
				}
			}()
			NewCluster(n)
		}()
	}
	if got := len(NewCluster(1).Engines()); got != 1 {
		t.Fatalf("NewCluster(1) has %d engines, want 1", got)
	}
}
