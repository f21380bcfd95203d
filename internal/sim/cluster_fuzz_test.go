package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// A schedule script describes a small message-passing system — logical
// nodes, directed channels with delays in [1, 500], relay rules, initial
// events — and a placement of the nodes on domains. The system's behaviour
// is a function of the description alone; the placement may only change how
// the cluster schedules it.
type schedScript struct {
	domains int
	place   []int  // node → domain
	rule    []byte // node → relay rule
	chans   []schedChan
	inits   []schedMsg
	horizon Time
}

type schedChan struct {
	src, dst int
	delay    Time
}

// schedMsg is one message: at initial events node and at say where and when
// it starts, in flight only payload and ttl travel.
type schedMsg struct {
	node    int
	at      Time
	payload int
	ttl     int
}

// schedRecv is one entry of a node's receive trace.
type schedRecv struct {
	at      Time
	payload int
}

func parseSchedScript(data []byte) schedScript {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	wide := func() int { return next()<<8 | next() }

	nodes := 2 + next()%4
	s := schedScript{domains: 2 + next()%3, horizon: Time(1 + wide()%8000)}
	for n := 0; n < nodes; n++ {
		s.place = append(s.place, next()%s.domains)
		s.rule = append(s.rule, byte(next()))
	}
	for i, n := 0, 1+next()%10; i < n; i++ {
		s.chans = append(s.chans, schedChan{src: next() % nodes, dst: next() % nodes, delay: Time(1 + wide()%500)})
	}
	for i, n := 0, 1+next()%6; i < n; i++ {
		s.inits = append(s.inits, schedMsg{node: next() % nodes, at: Time(wide() % 600), payload: next(), ttl: 1 + next()%6})
	}
	return s
}

// run plays the script and returns every node's receive trace. With a nil
// cluster everything lives on engs[0] and each channel is an AtOrdered on
// its lane — the reference. With a cluster, node n lives on domain place[n]
// and a channel whose ends are placed apart becomes an Outbox.
//
// A relay leaves a node 1–4 ticks after the message arrived, as a packet
// leaves a switch one serialization time after it came in: Outbox.Post
// promises lane order only to deliveries strictly later than the poster's
// clock plus the channel delay.
func (s schedScript) run(c *Cluster, engs []*Engine) [][]schedRecv {
	engOf := func(n int) *Engine { return engs[s.place[n]%len(engs)] }
	traces := make([][]schedRecv, len(s.place))
	send := make([]func(at Time, m schedMsg), len(s.chans))
	out := make([][]int, len(s.place)) // node → its outgoing channels
	for i, ch := range s.chans {
		out[ch.src] = append(out[ch.src], i)
	}

	receive := func(n int, m schedMsg) {
		now := engOf(n).Now()
		traces[n] = append(traces[n], schedRecv{now, m.payload})
		if m.ttl == 0 || len(out[n]) == 0 {
			return
		}
		r := int(s.rule[n])
		gap := Time(1 + r>>4&3)
		fwd := schedMsg{payload: (m.payload*31 + n + 1) & 0xffff, ttl: m.ttl - 1}
		first := (r + m.payload) % len(out[n])
		ch := out[n][first]
		send[ch](now+s.chans[ch].delay+gap, fwd)
		if r&0x80 != 0 { // fan out on the next channel too
			ch = out[n][(first+1)%len(out[n])]
			fwd.payload ^= 0x5a5a
			send[ch](now+s.chans[ch].delay+gap, fwd)
		}
	}

	for i, ch := range s.chans {
		dst := ch.dst
		deliver := func(x any) { receive(dst, x.(schedMsg)) }
		lane := uint32(i + 1)
		if c != nil {
			lane = c.NextLane()
		}
		src, dstEng := engOf(ch.src), engOf(dst)
		if src != dstEng {
			o := c.Outbox(src, dstEng, lane, ch.delay, deliver)
			send[i] = func(at Time, m schedMsg) { o.Post(at, m) }
		} else {
			send[i] = func(at Time, m schedMsg) { dstEng.AtOrdered(lane, at, deliver, m) }
		}
	}
	for _, m := range s.inits {
		m := m
		engOf(m.node).At(m.at, func() { receive(m.node, m) })
	}

	if c == nil {
		engs[0].RunUntil(s.horizon)
		return traces
	}
	// Two calls, so a deadline falls mid-flight and the next run resumes
	// with deliveries already flushed onto the destination heaps.
	c.RunUntil(s.horizon / 3)
	c.RunUntil(s.horizon)
	return traces
}

// maxWindows is the static bound on rounds: every round advances the clock
// by at least the least cross-domain delay unless a deadline cuts it short,
// and there are two deadlines.
func (s schedScript) maxWindows() uint64 {
	w := Time(0)
	for _, ch := range s.chans {
		if s.place[ch.src] != s.place[ch.dst] && (w == 0 || ch.delay < w) {
			w = ch.delay
		}
	}
	if w == 0 {
		return 2
	}
	return uint64(s.horizon/w) + 2
}

// FuzzClusterSchedule holds the cluster's round schedule to the single
// engine: for any script and any placement, every node must receive the
// same (time, payload) sequence whether the system runs on one engine or on
// N domains — and the cluster must not take more rounds than windows fit in
// the horizon. The committed
// corpus under testdata/fuzz adds the shapes random bytes rarely draw: two
// channels from different domains landing on one node at one instant, and a
// chain whose delays differ by 100×.
func FuzzClusterSchedule(f *testing.F) {
	for seed := int64(1); seed <= 20; seed++ {
		script := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := parseSchedScript(data)
		want := s.run(nil, []*Engine{NewEngine()})
		c := NewCluster(s.domains)
		got := s.run(c, c.Engines())
		for n := range want {
			if fmt.Sprint(got[n]) != fmt.Sprint(want[n]) {
				t.Fatalf("node %d (domain %d of %d) received\n  %v\nsingle engine\n  %v\nscript %+v",
					n, s.place[n], s.domains, got[n], want[n], s)
			}
		}
		if limit := s.maxWindows(); c.Windows > limit {
			t.Fatalf("%d rounds, static bound %d; script %+v", c.Windows, limit, s)
		}
	})
}
