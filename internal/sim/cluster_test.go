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

// TestClusterRunAccounting: Windows counts the RunUntil calls that moved
// the clock, the one DomainLoad counts the calls that fired events, and
// the retired partition fields read zero.
func TestClusterRunAccounting(t *testing.T) {
	c := NewCluster(1)
	fired := 0
	c.Engine().At(5, func() { fired++ })
	c.RunUntil(10) // fires
	c.RunUntil(10) // does not move the clock
	c.RunUntil(20) // clock hop
	st := c.SyncStats()
	if fired != 1 || c.Now() != 20 {
		t.Fatalf("fired %d, clock %v; want 1 and 20", fired, c.Now())
	}
	if st.Windows != 2 || len(st.Domains) != 1 || st.Domains[0].Runs != 1 {
		t.Fatalf("sync stats %+v: want 2 windows and one domain with 1 run", st)
	}
	if st.Flushes != 0 || st.FlushedMsgs != 0 || st.BarrierNS != 0 || st.Parallel {
		t.Fatalf("sync stats %+v: partition fields must read zero", st)
	}
}
