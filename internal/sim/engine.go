// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is intentionally single-threaded: given the same seed and the
// same sequence of Schedule calls, a run is bit-for-bit reproducible, which
// is what the experiment harness and the regression tests rely on. Events
// scheduled for the same instant fire in scheduling order.
//
// The event core is built for the per-packet hot path:
//
//   - a 4-ary heap (shallower than a binary heap, so fewer comparisons
//     and moves per push/pop on the deep queues a packet simulation
//     builds) of handle-less slots: a heap event is fire-and-forget, its
//     callback lives inline in the slot, nothing outside the heap points
//     into it, and steady-state packet forwarding allocates nothing;
//   - everything cancellable or re-armable (RTO, pacing, periodic ticks,
//     arrival processes) is a Timer on the second lane, a small indexed
//     4-ary heap of armed timers (timer.go): each timer knows its heap
//     index, so arm, disarm and re-arm are exact O(log n) sifts in armed
//     timers with no tombstones; the dispatch loop merges the two lane
//     roots by (time, scheduling sequence), so lane choice never changes
//     event order.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulated instant, in nanoseconds since the start of the run.
type Time int64

// Convenient duration constants in simulated time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts the time to floating-point seconds, for rate math and
// report formatting.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// FromFloat converts a float64 count of nanoseconds to a Time as a
// conversion does, truncating toward zero, but the same on every
// architecture: NaN reads 0, and a value at or past ±(1<<62 − 1), ±Inf
// included, saturates there, at the deadline of an unbounded dispatch, so
// adding it to any schedulable time cannot wrap. Go leaves an out-of-range
// float-to-integer conversion to the implementation (NaN converts to
// math.MinInt64 on amd64 and to 0 on 386 and arm64), so every float-valued
// duration the program computes becomes a Time here.
func FromFloat(ns float64) Time {
	switch {
	case ns != ns:
		return 0
	case ns >= float64(maxTime): // the constant rounds to 2^62
		return maxTime
	case ns <= -float64(maxTime):
		return -maxTime
	}
	return Time(ns)
}

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// The pending-event heap is stored as two parallel arrays: 16-byte keys
// (what sift comparisons read — four children fit in one cache line) and
// the payloads (moved in tandem, never compared). A slot carries its
// callback inline and has no handle: nothing outside the heap knows where
// a slot sits, so a sift moves keys and payloads and maintains nothing
// else, and a heap event can be neither cancelled nor moved — that is what
// Timer is for.
//
// seq is the engine's scheduling sequence number at the time the event was
// scheduled: at equal times it decides, so same-instant events fire in
// scheduling order, as ns-3's scheduler fires them.
type heapKey struct {
	at  Time
	seq uint64
}

type heapVal struct {
	fnArg func(any)
	arg   any
}

// Engine owns the simulated clock and the two scheduling lanes: the
// pending-event heap for packet and delivery events, and the timer heap
// (see timer.go) for cancellable, re-armable timers. The dispatch loop
// merges the lanes by (time, scheduling sequence), so which lane an event
// rode is invisible to the model.
type Engine struct {
	now  Time
	seq  uint64
	keys []heapKey // 4-ary min-heap on (at, seq)
	vals []heapVal // payloads, parallel to keys

	// tkeys and tptrs are the timer lane: a 4-ary min-heap of armed
	// timers on (at, seq), keys and timers parallel, each timer holding
	// its own index.
	tkeys []heapKey
	tptrs []*Timer

	// hole is true while the root slot holds the event currently firing:
	// the dispatch loop defers the physical pop so that the first event
	// the handler schedules can drop straight into the root with one
	// sift-down, fusing the pop's down + push's up of the ubiquitous
	// fire-then-reschedule pattern into a single down. While the hole is
	// open the root key is stale; Pending compensates. thole is
	// the same for the timer lane, refilled by the first timer armed.
	hole, thole bool

	// Processed counts events that have fired; it is exposed for
	// benchmarks and sanity checks.
	Processed uint64

	seqs seqTable

	// packetPool is an opaque per-engine slot the packet package uses for
	// the engine's packet free list (sim cannot import packet). See
	// PacketPoolSlot.
	packetPool any
}

// PacketPoolSlot returns a pointer to the engine's opaque packet-pool slot.
// The packet package stores the engine's one packet free list here, so the
// list lives and dies with the engine; nothing in sim touches the value.
func (e *Engine) PacketPoolSlot() *any { return &e.packetPool }

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// EngineStats is a snapshot of the engine's dispatch counters, following
// the repo-wide stats convention (value type, no locks held).
type EngineStats struct {
	Now       Time   `json:"now_ns"`
	Processed uint64 `json:"processed"`
	// Inlined is never set and always 0; it stays only because bench's
	// counter folds still name the field (ROADMAP item 5).
	Inlined uint64 `json:"inlined"`
	Pending int    `json:"pending"`
}

// Stats returns a snapshot of the clock and event counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{Now: e.now, Processed: e.Processed, Pending: e.Pending()}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SeqDomain registers (or finds) the named per-engine sequence and returns
// its handle. Components derive identifiers and RNG seeds from these
// sequences instead of process globals, so a run is fully determined by
// its engine: two runs that build the same topology and schedule the same
// events get identical IDs and random streams, no matter how many other
// engines run before or concurrently with them. Handles are small integers
// valid for the life of the engine; drawing through one (NextIn) costs no
// string hash or map probe.
func (e *Engine) SeqDomain(name string) SeqDomain { return e.seqs.domain(name) }

// NextIn returns the next value (1, 2, ...) of a sequence previously
// registered with SeqDomain.
func (e *Engine) NextIn(d SeqDomain) uint64 { return e.seqs.next(d) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a logic error in a discrete-event model. At is the closure
// convenience over AtDetached: the func value rides in the slot's arg, so
// nothing is allocated beyond the caller's closure.
func (e *Engine) At(t Time, fn func()) { e.AtDetached(t, callFunc, fn) }

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.AfterDetached(d, callFunc, fn) }

func callFunc(fn any) { fn.(func())() }

// AtDetached schedules fn(arg) at absolute time t. Like every heap event it
// has no handle — it cannot be cancelled or moved (use a Timer for that) —
// which is exactly what lets it live inline in a heap slot: scheduling and
// firing per-packet callbacks (transmit-done, delivery) allocates nothing.
func (e *Engine) AtDetached(t Time, fn func(any), arg any) {
	e.checkTime(t)
	e.place(heapKey{at: t, seq: e.nextSeq()}, heapVal{fnArg: fn, arg: arg})
}

// AfterDetached schedules fn(arg) to run d nanoseconds from now; see
// AtDetached.
func (e *Engine) AfterDetached(d Time, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	e.AtDetached(e.now+d, fn, arg)
}

// nextSeq draws the next scheduling sequence number. Every scheduling call
// — AtDetached and Timer.Arm — keys its event with one, so at equal times
// events fire in the order they were scheduled. The counter is the full
// 64 bits and does not wrap in any run.
func (e *Engine) nextSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

func (e *Engine) checkTime(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v which is before now %v", t, e.now))
	}
}

// Pending reports the number of events that will fire across both lanes:
// heap slots plus armed timers. Neither lane holds tombstones — a heap
// event cannot be cancelled and a disarmed timer leaves its heap at once.
func (e *Engine) Pending() int {
	n := len(e.keys) + len(e.tkeys)
	if e.hole {
		n-- // the stale root is the event currently firing, not pending
	}
	if e.thole {
		n--
	}
	return n
}

// step fires the earliest pending event — merging the event and timer
// lanes by (time, scheduling sequence) — if it is due by the deadline, and
// reports whether one fired. Keys never compare equal across lanes: both
// draw from the one scheduling sequence, so the merge is a strict total
// order. No hole is open on entry: every fire closes its own.
func (e *Engine) step(deadline Time) bool {
	k := e.keys
	if len(e.tkeys) > 0 && (len(k) == 0 || less(e.tkeys[0], k[0])) {
		at := e.tkeys[0].at
		if at > deadline {
			return false
		}
		e.fireTimer(at)
		return true
	}
	if len(k) == 0 || k[0].at > deadline {
		return false
	}
	// Deferred pop: open the root hole and fire. The handler's first
	// scheduling call refills the root directly (see place); only a
	// handler that schedules nothing pays the full pop. The payload is
	// copied out first, so the callback may freely schedule new events.
	v := e.vals[0]
	e.hole = true
	e.now = k[0].at
	v.fnArg(v.arg)
	e.Processed++
	if e.hole {
		e.closeHole()
	}
	return true
}

// maxTime is the deadline of an unbounded dispatch (Run, Step): far enough
// out that no schedulable time exceeds it.
const maxTime = Time(1<<62 - 1)

// Step fires the earliest pending event and returns true, or returns false
// when both lanes are empty.
func (e *Engine) Step() bool { return e.step(maxTime) }

// Run fires events until both lanes are empty.
func (e *Engine) Run() {
	for e.step(maxTime) {
	}
}

// RunUntil fires events with timestamps <= deadline and then advances the
// clock to the deadline. Events scheduled beyond the deadline stay pending.
// Timers respect the deadline exactly like heap events, so one due on the
// deadline fires inside this call.
func (e *Engine) RunUntil(deadline Time) {
	for e.step(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// ---------------------------------------------------------------------------
// 4-ary heap on (at, seq). Child c of node i is 4i+1 … 4i+4; the parent of
// i is (i-1)/4. Shallower than a binary heap: a million pending events sit
// 10 levels deep instead of 20. Keys live in their own array, so every
// comparison during a sift is a sequential read of 16-byte keys.

// ltMask is the one statement of the order: all ones when a fires before b,
// zero otherwise — (at, seq) compared as one 128-bit unsigned value through
// a borrow chain (at is never negative, see checkTime, so the cast preserves
// order). less is that mask tested; down selects with it.
func ltMask(a, b heapKey) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return -borrow
}

func less(a, b heapKey) bool { return ltMask(a, b) != 0 }

// selKey returns b where m is all ones and a where it is zero.
func selKey(a, b heapKey, m uint64) heapKey {
	return heapKey{at: a.at ^ (a.at^b.at)&Time(m), seq: a.seq ^ (a.seq^b.seq)&m}
}

// place inserts one heap slot. When the dispatch loop's root hole is open
// (see Engine.hole), the slot drops straight into the root and sifts down —
// the fused form of pop-then-push. Otherwise it appends and sifts up.
func (e *Engine) place(key heapKey, val heapVal) {
	if e.hole {
		e.hole = false
		e.keys[0] = key
		e.vals[0] = val
		e.down(0)
		return
	}
	i := len(e.keys)
	e.keys = append(e.keys, key)
	e.vals = append(e.vals, val)
	e.up(i)
}

// closeHole physically removes the stale root left by a deferred pop: the
// fired handler scheduled nothing, so the last slot moves up as a normal
// pop would have done.
func (e *Engine) closeHole() {
	e.hole = false
	n := len(e.keys) - 1
	e.keys[0] = e.keys[n]
	e.vals[0] = e.vals[n]
	e.keys[n] = heapKey{}
	e.vals[n] = heapVal{}
	e.keys = e.keys[:n]
	e.vals = e.vals[:n]
	if n > 0 {
		e.down(0)
	}
}

func (e *Engine) up(i int) {
	k := e.keys
	key := k[i]
	val := e.vals[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !less(key, k[parent]) {
			break
		}
		k[i] = k[parent]
		e.vals[i] = e.vals[parent]
		i = parent
	}
	k[i] = key
	e.vals[i] = val
}

// down sifts slot i towards the leaves.
func (e *Engine) down(i int) {
	k := e.keys
	key := k[i]
	val := e.vals[i]
	for {
		first := 4*i + 1
		if first >= len(k) {
			break
		}
		min, best := minChild(k, first)
		if !less(best, key) {
			break
		}
		k[i] = best
		e.vals[i] = e.vals[min]
		i = min
	}
	k[i] = key
	e.vals[i] = val
}

// minChild returns the index and key of the least of the (up to four)
// siblings starting at first, which must exist. Which of four children is
// least is a coin toss to a branch predictor — hold-model keys arrive in
// no order it can learn — so a full fan-out is decided by a tournament of
// masks (two semifinals and a final select both the winning key and its
// index) and the only data-dependent branch per level of a sift is its
// loop exit. The scalar loop serves the at most one node with fewer than
// four children. Ties keep the lower index in both.
func minChild(k []heapKey, first int) (int, heapKey) {
	if first+4 <= len(k) {
		c := k[first : first+4 : first+4]
		m01, m23 := ltMask(c[1], c[0]), ltMask(c[3], c[2])
		k01, k23 := selKey(c[0], c[1], m01), selKey(c[2], c[3], m23)
		i01, i23 := m01&1, 2|m23&1
		mf := ltMask(k23, k01)
		return first + int(i01^(i01^i23)&mf), selKey(k01, k23, mf)
	}
	min, best := first, k[first]
	for c := first + 1; c < len(k); c++ {
		if less(k[c], best) {
			min, best = c, k[c]
		}
	}
	return min, best
}
