package sim

// The timer lane. Timer-class events — RTO and pacing wake-ups, CBR and
// token-bucket ticks, periodic controller loops — are the engine's only
// cancellable, re-armable primitive. They live on a second 4-ary min-heap
// beside the event heap, on the same (time, scheduling sequence) keys, stored
// the same way: keys in one array (what sifts compare), the *Timer
// payloads in a parallel one. The lane is built for the traffic it
// carries: few armed timers per engine (at most 48 in any bench workload,
// 147 across the golden sweep), most arms a firing timer re-arming itself,
// and moves or disarms of an armed timer rare.
//
//   - Every Timer records its heap index, -1 while unarmed, so a disarm or
//     a move is an exact sift in place: no tombstone, no lazy deletion, and
//     Pending is a length.
//   - A firing timer leaves a root hole exactly as a firing heap event does
//     (see Engine.hole): the first timer armed from inside the callback —
//     usually the timer re-arming itself — drops into the root and costs
//     one sift-down, the fused form of pop-then-push.
//   - A slot a timer leaves is cleared at once, so a fired or disarmed
//     timer, and everything its callback captures, is never kept alive by
//     the lane.
//
// Determinism is preserved exactly. Every arm draws its sequence number
// from the engine's one scheduling-sequence counter — the counter heap
// events draw from — and the dispatch loop merges the two lane roots by
// (time, scheduling sequence). A timer armed between two heap schedules therefore fires
// between them at equal instants, exactly where a single priority queue
// would fire it; timer_test.go holds the engine to a deliberately naive
// flat-slice scheduler over seeded and fuzzed scripts.

// Timer is a cancellable, re-armable timer handle on the engine's timer
// lane. Create one with Engine.NewTimer, then Arm and Disarm it
// freely: each is O(log n) in armed timers, none allocates once the lane
// has grown to its working size, and a disarmed timer leaves nothing
// behind in any queue. A Timer is owned by one component (the transport's
// RTO field, a shaper's drain timer) and is not safe for concurrent use,
// exactly like the engine itself.
type Timer struct {
	eng *Engine
	fn  func()
	at  Time
	idx int // position in the engine's timer heap; -1 while unarmed
}

// NewTimer returns an unarmed timer firing fn. The callback is fixed at
// construction — re-arming never allocates a closure.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn, idx: -1}
}

// Arm schedules the timer to fire at absolute time t, moving it if it is
// already armed. Arming draws a fresh sequence number, so the timer orders
// among same-instant events exactly as a newly scheduled heap event would.
// Arming in the past panics, as for every scheduling call.
func (t *Timer) Arm(at Time) {
	e := t.eng
	e.checkTime(at)
	t.at = at
	key := heapKey{at: at, seq: e.nextSeq()}
	switch {
	case t.idx >= 0: // a move: the fresh key may sort either way
		e.tkeys[t.idx] = key
		e.tfix(t.idx)
	case e.thole:
		e.thole = false
		e.tkeys[0], e.tptrs[0] = key, t
		e.tdown(0)
	default:
		e.tkeys = append(e.tkeys, key)
		e.tptrs = append(e.tptrs, t)
		e.tup(len(e.tkeys) - 1)
	}
}

// ArmAfter schedules the timer to fire d nanoseconds from now; see Arm.
func (t *Timer) ArmAfter(d Time) {
	if d < 0 {
		d = 0
	}
	t.Arm(t.eng.now + d)
}

// RearmAfter is ArmAfter under the name the bench module's timer feeder
// still calls; the repository itself calls ArmAfter.
func (t *Timer) RearmAfter(d Time) { t.ArmAfter(d) }

// Disarm stops the timer. Disarming an unarmed timer is a no-op. The timer
// leaves the heap at once — no tombstone survives.
func (t *Timer) Disarm() {
	if i := t.idx; i >= 0 {
		t.idx = -1
		t.eng.tremove(i)
	}
}

// Pending reports whether the timer is armed and will fire. Lazy re-arm
// callers use it to skip the re-arm when an already-armed timer fires no
// later than needed.
func (t *Timer) Pending() bool { return t.idx >= 0 }

// Time returns the instant the timer is armed for (the last armed instant
// once fired).
func (t *Timer) Time() Time { return t.at }

// fireTimer fires the root timer, whose deadline is at. Like step's heap
// branch it defers the pop: the root stays in place as a hole for the
// callback's first arm to refill, and is removed only if the callback
// armed nothing.
func (e *Engine) fireTimer(at Time) {
	t := e.tptrs[0]
	t.idx = -1
	e.thole = true
	e.now = at
	t.fn()
	e.Processed++
	if e.thole {
		e.thole = false
		e.tremove(0)
	}
}

// tremove deletes heap entry i: the last entry takes its place and sifts
// whichever way its key sorts, and the vacated tail slot is cleared. While
// the root hole is open the stale root key precedes every live key, so
// nothing sifts past it.
func (e *Engine) tremove(i int) {
	n := len(e.tkeys) - 1
	e.tkeys[i], e.tptrs[i] = e.tkeys[n], e.tptrs[n]
	e.tptrs[n] = nil
	e.tkeys, e.tptrs = e.tkeys[:n], e.tptrs[:n]
	if i < n {
		e.tfix(i)
	}
}

// tfix restores the heap order around entry i after its key changed.
func (e *Engine) tfix(i int) {
	if i > 0 && less(e.tkeys[i], e.tkeys[(i-1)/4]) {
		e.tup(i)
	} else {
		e.tdown(i)
	}
}

// tup and tdown are Engine.up and Engine.down over the timer arrays, with
// every timer they move told its new index.
func (e *Engine) tup(i int) {
	k, p := e.tkeys, e.tptrs
	key, t := k[i], p[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !less(key, k[parent]) {
			break
		}
		k[i], p[i] = k[parent], p[parent]
		p[i].idx = i
		i = parent
	}
	k[i], p[i] = key, t
	t.idx = i
}

func (e *Engine) tdown(i int) {
	k, p := e.tkeys, e.tptrs
	key, t := k[i], p[i]
	for {
		first := 4*i + 1
		if first >= len(k) {
			break
		}
		min, best := minChild(k, first)
		if !less(best, key) {
			break
		}
		k[i], p[i] = best, p[min]
		p[i].idx = i
		i = min
	}
	k[i], p[i] = key, t
	t.idx = i
}
