package sim

import (
	"fmt"
	"testing"
)

// TestAtOrderedLaneOrdering: at one instant, events fire by lane first and
// scheduling order only within a lane — regardless of push order.
func TestAtOrderedLaneOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	rec := func(x any) { got = append(got, x.(string)) }
	e.AtOrdered(2, 10, rec, "lane2-a")
	e.AtOrdered(1, 10, rec, "lane1-a")
	e.At(10, func() { got = append(got, "lane0-handle") })
	e.AtDetached(10, rec, "lane0-detached")
	e.AtOrdered(1, 10, rec, "lane1-b")
	e.AtOrdered(2, 10, rec, "lane2-b")
	e.Run()
	want := []string{"lane0-handle", "lane0-detached", "lane1-a", "lane1-b", "lane2-a", "lane2-b"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
}

// TestAtOrderedLaneBeatsLateAnonymous: an anonymous event scheduled after
// billions of sequence draws still precedes any lane>0 event at the same
// instant (the lane occupies strictly higher bits than any realistic seq).
func TestAtOrderedLaneBeatsLateAnonymous(t *testing.T) {
	e := NewEngine()
	e.seq = 1 << 39 // deep into a long run, still below the lane bits
	var got []string
	rec := func(x any) { got = append(got, x.(string)) }
	e.AtOrdered(1, 5, rec, "lane1")
	e.AtDetached(5, rec, "anon")
	e.Run()
	if fmt.Sprint(got) != "[anon lane1]" {
		t.Fatalf("fire order %v, want [anon lane1]", got)
	}
}

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

// TestClusterWindowedExchange runs a two-domain ping-pong through outboxes
// and checks the conservative loop: messages cross only at flush points,
// arrive at their exact posted times, and the earliest-event term of the
// bound takes the idle tail in one round instead of one per window.
func TestClusterWindowedExchange(t *testing.T) {
	c := NewCluster(2)
	a, b := c.Engine(0), c.Engine(1)
	const delay = 10

	var log []string
	var toB, toA *Outbox
	toB = c.Outbox(a, b, c.NextLane(), delay, func(x any) {
		n := x.(int)
		log = append(log, fmt.Sprintf("b@%d:%d", b.Now(), n))
		if n < 3 {
			toA.Post(b.Now()+delay, n+1)
		}
	})
	toA = c.Outbox(b, a, c.NextLane(), delay, func(x any) {
		n := x.(int)
		log = append(log, fmt.Sprintf("a@%d:%d", a.Now(), n))
		toB.Post(a.Now()+delay, n+1)
	})
	a.At(0, func() { toB.Post(delay, 0) })

	c.RunUntil(100)
	want := "[b@10:0 a@20:1 b@30:2 a@40:3 b@50:4]"
	if fmt.Sprint(log) != want {
		t.Fatalf("exchange log %v, want %v", log, want)
	}
	if c.Now() != 100 || a.Now() != 100 || b.Now() != 100 {
		t.Fatalf("clocks: cluster %v, a %v, b %v, want all 100", c.Now(), a.Now(), b.Now())
	}
	// Stepping the clock by the window alone would take horizon/delay = 10
	// rounds; the exchange takes one per hop and the idle tail one more.
	if c.Windows >= 10 || c.Windows < 5 {
		t.Fatalf("windows = %d, want within [5, 10) (one round per hop plus the idle tail)", c.Windows)
	}
	st := c.SyncStats()
	if st.FlushedMsgs != 5 || st.Windows != c.Windows {
		t.Fatalf("sync stats %+v: want 5 flushed messages", st)
	}
}

// TestClusterAsymmetricChainDelivers: in a 3-domain chain A→B→C where the
// A→B hop is tight (delay 10) and the B→C hop is loose (delay 400), every
// domain shares the window of the tightest channel and every message still
// arrives: unequal delays cost C rounds it could have skipped, never a
// delivery.
func TestClusterAsymmetricChainDelivers(t *testing.T) {
	c := NewCluster(3)
	a, b, cc := c.Engine(0), c.Engine(1), c.Engine(2)
	const horizon = 10_000

	var atB, atC int
	toC := c.Outbox(b, cc, c.NextLane(), 400, func(any) { atC++ })
	toB := c.Outbox(a, b, c.NextLane(), 10, func(x any) {
		atB++
		toC.Post(b.Now()+400, x)
	})
	// Quiet reverse channels, as a bidirectional link would have: they
	// carry no traffic but still couple the pairs' clocks.
	c.Outbox(b, a, c.NextLane(), 10, func(any) {})
	c.Outbox(cc, b, c.NextLane(), 400, func(any) {})
	// A streams a message every 10 time units; B relays each to C.
	var send func()
	send = func() {
		toB.Post(a.Now()+10, 0)
		if a.Now()+10 < horizon {
			a.After(10, send)
		}
	}
	a.At(0, send)
	// Busy local ticks on every domain so no one is ever idle.
	for _, e := range []*Engine{a, b, cc} {
		e := e
		var tick func()
		tick = func() {
			if e.Now() < horizon {
				e.After(5, tick)
			}
		}
		e.At(0, tick)
	}

	c.RunUntil(horizon)
	// B hears messages at t = 10, 20, …, 10000; relays at t+400 land
	// inside the horizon only for t ≤ 9600.
	if atB != 1000 || atC != 960 {
		t.Fatalf("deliveries: B got %d, C got %d — want 1000 and 960", atB, atC)
	}
	st := c.SyncStats()
	runs := make(map[int]uint64)
	for _, d := range st.Domains {
		runs[d.Domain] = d.Runs
	}
	if runs[1] == 0 || runs[2] == 0 {
		t.Fatalf("domain runs %v: every domain must have executed work", runs)
	}
}

// TestOutboxShrink: a single burst window must not pin its worst-case
// backing array forever — after enough small flushes the mailbox
// reallocates down toward the recent peak.
func TestOutboxShrink(t *testing.T) {
	c := NewCluster(2)
	o := c.Outbox(c.Engine(0), c.Engine(1), c.NextLane(), 1, func(any) {})
	for i := 0; i < 4096; i++ {
		o.Post(Time(i+1), nil)
	}
	o.flush()
	if cap(o.entries) < 4096 {
		t.Fatalf("cap %d after oversized window, expected ≥ 4096", cap(o.entries))
	}
	for f := 0; f < 2*shrinkCheckEvery; f++ {
		o.Post(Time(f+5000), nil)
		o.flush()
	}
	if cap(o.entries) > 64 {
		t.Fatalf("cap %d after %d small flushes, want shrunk to ≤ 64", cap(o.entries), 2*shrinkCheckEvery)
	}
}

// TestClusterNoBoundaries: independent domains run straight to the deadline
// in a single window.
func TestClusterNoBoundaries(t *testing.T) {
	c := NewCluster(3)
	fired := 0
	for i, e := range c.Engines() {
		e.At(Time(5+i), func() { fired++ })
	}
	c.RunUntil(50)
	if fired != 3 || c.Windows != 1 {
		t.Fatalf("fired %d windows %d, want 3 events in 1 window", fired, c.Windows)
	}
}

// TestClusterWindowsExchangeMessages: each domain runs a local event chain
// while exchanging messages with its neighbours through outboxes every
// window, and every tick and every posted message is counted exactly once.
func TestClusterWindowsExchangeMessages(t *testing.T) {
	c := NewCluster(4)
	const delay = 7

	counts := make([]int, c.N())
	boxes := make([]*Outbox, c.N())
	for i := 0; i < c.N(); i++ {
		i := i
		e := c.Engine(i)
		// Domain i's inbox is fed by its left neighbour (the only poster).
		left := c.Engine((i + c.N() - 1) % c.N())
		boxes[i] = c.Outbox(left, e, c.NextLane(), delay, func(x any) { counts[i] += x.(int) })
		// A local self-rescheduling tick on every domain.
		var tick func()
		tick = func() {
			counts[i]++
			if e.Now() < 900 {
				e.After(3, tick)
			}
		}
		e.At(0, tick)
	}
	// Each domain posts to its right neighbour once per local tick epoch.
	for i := 0; i < c.N(); i++ {
		i := i
		e := c.Engine(i)
		next := boxes[(i+1)%c.N()]
		var send func()
		send = func() {
			next.Post(e.Now()+delay, 1000)
			if e.Now() < 800 {
				e.After(11, send)
			}
		}
		e.At(1, send)
	}
	c.RunUntil(1000)
	// Ticks at 0, 3, …, 900 (301 of them); posts at 1, 12, …, 804 (74),
	// each worth 1000 and delivered by 811.
	const want = 301 + 74*1000
	for i, n := range counts {
		if n != want {
			t.Fatalf("domain %d count %d, want %d local ticks plus cross-domain posts", i, n, want)
		}
	}
}

// TestClusterSequencesArePartitionInvariant: cluster draws do not depend on
// how many domains exist.
func TestClusterSequencesArePartitionInvariant(t *testing.T) {
	draw := func(n int) []uint64 {
		c := NewCluster(n)
		pipe, queue := c.SeqDomain("pipe"), c.SeqDomain("queue")
		var out []uint64
		for i := 0; i < 4; i++ {
			out = append(out, c.NextIn(pipe), c.NextIn(queue))
		}
		return out
	}
	one, four := draw(1), draw(4)
	if fmt.Sprint(one) != fmt.Sprint(four) {
		t.Fatalf("cluster sequences differ by partitioning: %v vs %v", one, four)
	}
}
