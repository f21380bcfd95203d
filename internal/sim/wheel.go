package sim

import "math/bits"

// The timer lane. Timer-class events — RTO re-arms, pacing gates, CBR and
// token-bucket ticks, periodic controller loops — are overwhelmingly
// short-horizon, frequently re-armed, and often disarmed before firing.
// On a heap each of those operations would cost a log-depth sift, and a
// cancellation would either leave a tombstone behind or need every slot to
// maintain a back-pointer through every sift. The wheel gives the same
// events O(1) arm, disarm, and re-arm with no tombstones at all — a disarm
// clears its slot entry in place — and it is the engine's only
// cancellable primitive, so the heap never needs handles.
//
// Determinism is preserved exactly. Every armed timer carries an ordering
// word drawn from the engine's one scheduling-sequence counter — the same
// counter heap events draw from — and the engine's dispatch loop merges the
// two lanes by (time, ordering word). A timer armed between two heap
// schedules therefore fires between them at equal instants, exactly where a
// single priority queue would fire it; wheel_test.go holds the engine to a
// deliberately naive flat-slice scheduler over seeded and fuzzed scripts.
//
// Structure: wheelLevels levels of wheelSlots slots. Level l slots are
// 64^l ns wide, so level 0 resolves exact nanoseconds and the hierarchy
// spans 64^wheelLevels ns (about 73 simulated minutes); the rare timer
// beyond that waits on an overflow list. Slotting is window-aligned: a
// deadline is filed at the smallest level whose next-coarser-aligned
// window still contains the current time, which gives the invariant the
// dispatch merge relies on — every live entry at level l precedes every
// live entry at level l+1, so the earliest timer is always in the first
// occupied slot of the lowest occupied level. As the clock crosses a
// level's window boundary the slot that just became current is cascaded
// down, preserving per-slot arm order; entries within one level-0 slot
// share one exact instant and are stored in ordering-word order by
// construction, so no sort ever runs.

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64 slots per level
	wheelLevels = 7              // 64^7 ns ≈ 73 simulated minutes of span
)

// Timer is a cancellable, re-armable timer handle on the engine's wheel
// lane. Create one with Engine.NewTimer, then Arm/Rearm and Disarm it
// freely: all three are O(1), none allocates after construction, and a
// disarmed timer leaves nothing behind in any queue. A Timer is owned by
// one component (the transport's RTO field, a shaper's drain timer) and is
// not safe for concurrent use, exactly like the engine itself.
type Timer struct {
	eng *Engine
	fn  func()

	at  Time
	ord uint64 // ordering word: the engine scheduling sequence at arm time

	// Wheel position while armed: level wheelLevels means the overflow
	// list; idx is the entry index within the slot (or overflow) slice.
	level int32
	slot  int32
	idx   int32
	armed bool
}

// NewTimer returns an unarmed timer firing fn. The callback is fixed at
// construction — re-arming never allocates a closure.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn}
}

// Arm schedules the timer to fire at absolute time t, moving it if it is
// already armed. Arming draws a fresh ordering word, so the timer orders
// among same-instant events exactly as a newly scheduled heap event would.
// Arming in the past panics, as for every scheduling call.
func (t *Timer) Arm(at Time) {
	e := t.eng
	e.checkTime(at)
	w := &e.wheel
	if t.armed {
		w.remove(t)
	}
	t.at = at
	t.ord = e.nextOrd(0)
	t.armed = true
	w.advance(e.now)
	w.place(t)
	w.live++
	if w.min != nil && (at < w.min.at || (at == w.min.at && t.ord < w.min.ord)) {
		w.min = t
	}
}

// ArmAfter schedules the timer to fire d nanoseconds from now; see Arm.
func (t *Timer) ArmAfter(d Time) {
	if d < 0 {
		d = 0
	}
	t.Arm(t.eng.now + d)
}

// Rearm is Arm under the name re-arming call sites read naturally: a
// pending timer moves to the new deadline, a fired or disarmed one is
// armed afresh. Both draw a fresh ordering word.
func (t *Timer) Rearm(at Time) { t.Arm(at) }

// RearmAfter re-arms the timer to fire d nanoseconds from now; see Rearm.
func (t *Timer) RearmAfter(d Time) { t.ArmAfter(d) }

// Disarm stops the timer. Disarming an unarmed timer is a no-op. The slot
// entry is cleared in place — no tombstone survives.
func (t *Timer) Disarm() {
	if t.armed {
		t.eng.wheel.remove(t)
	}
}

// Pending reports whether the timer is armed and will fire. Lazy re-arm
// callers use it to skip the re-arm when an already-armed timer fires no
// later than needed.
func (t *Timer) Pending() bool { return t.armed }

// Time returns the instant the timer is armed for (the last armed instant
// once fired).
func (t *Timer) Time() Time { return t.at }

// timerWheel is the engine's hierarchical wheel state; its zero value is an
// empty wheel, and slot storage is carved per level on first use. It holds
// no reference to the engine: the engine pushes its clock in through
// advance/peek.
type timerWheel struct {
	cur  Time // wheel clock: trails the engine clock, synced on use
	live int  // armed timers across all levels and the overflow list

	// min caches the earliest live timer; nil means unknown (recompute on
	// next peek). Arming something earlier updates it directly; removing
	// the cached timer invalidates it.
	min *Timer

	levels   [wheelLevels]wheelLevel
	overflow []*Timer // deadlines beyond the top level's span
	overLive int
}

// wheelLevel is one resolution tier: 64 slots, a bitmap of slots with live
// entries, and per-slot live counts so disarm-heavy slots can be reset the
// moment they empty.
type wheelLevel struct {
	occupied uint64
	ready    bool // slot slices carved from the arena (first place at this level)
	liveIn   [wheelSlots]uint32
	slots    [wheelSlots][]*Timer
}

// slotChunk is the initial capacity carved out for each slot slice. Steady
// state rarely holds more than a handful of timers per exact slot; a slot
// that outgrows its chunk just grows off-arena through append, once.
const slotChunk = 8

// initSlots carves one arena allocation into 64 zero-length, slotChunk-cap
// slot slices. Without this, a fresh engine's first pass through a level
// paid one allocation per touched slot (up to 64 per level) as each nil
// slice grew through append — measurable across benchmark runs that build
// thousands of short-lived engines. The capacity survives for the life of
// the engine: remove and advance reset slots with [:0], never to nil.
func (lv *wheelLevel) initSlots() {
	arena := make([]*Timer, wheelSlots*slotChunk)
	for s := range lv.slots {
		lv.slots[s] = arena[s*slotChunk : s*slotChunk : (s+1)*slotChunk]
	}
	lv.ready = true
}

// levelFor returns the level a deadline files at: the smallest l whose
// 64^(l+1)-aligned window contains both at and cur, found from the highest
// differing bit. wheelLevels means the overflow list.
func (w *timerWheel) levelFor(at Time) int {
	b := bits.Len64(uint64(at ^ w.cur))
	if b <= wheelBits {
		return 0
	}
	l := (b - 1) / wheelBits
	if l > wheelLevels {
		l = wheelLevels
	}
	return l
}

// place files an armed timer into its slot (or the overflow list) without
// touching ordering words or live counts — shared by arm and cascade, so a
// cascaded entry keeps its original ordering word.
func (w *timerWheel) place(t *Timer) {
	l := w.levelFor(t.at)
	if l >= wheelLevels {
		t.level = wheelLevels
		t.idx = int32(len(w.overflow))
		w.overflow = append(w.overflow, t)
		w.overLive++
		return
	}
	lv := &w.levels[l]
	if !lv.ready {
		lv.initSlots()
	}
	s := int32(t.at>>(wheelBits*l)) & (wheelSlots - 1)
	t.level = int32(l)
	t.slot = s
	if n := len(lv.slots[s]); n >= 32 && int(lv.liveIn[s])*2 < n {
		compactSlot(&lv.slots[s])
	}
	t.idx = int32(len(lv.slots[s]))
	lv.slots[s] = append(lv.slots[s], t)
	lv.liveIn[s]++
	lv.occupied |= 1 << uint(s)
}

// compactSlot squeezes cleared entries out of a slot in place, preserving
// arm order (and thus ordering-word order) and refreshing entry indices.
func compactSlot(slot *[]*Timer) {
	live := (*slot)[:0]
	for _, t := range *slot {
		if t != nil {
			t.idx = int32(len(live))
			live = append(live, t)
		}
	}
	for i := len(live); i < len(*slot); i++ {
		(*slot)[i] = nil
	}
	*slot = live
}

// remove clears an armed timer's entry in place: O(1), no tombstone. The
// slot's bitmap bit drops the moment its last live entry goes.
func (w *timerWheel) remove(t *Timer) {
	if t.level == wheelLevels {
		w.overflow[t.idx] = nil
		w.overLive--
		if w.overLive == 0 {
			w.overflow = w.overflow[:0]
		} else if n := len(w.overflow); n >= 32 && w.overLive*2 < n {
			compactOverflow(w)
		}
	} else {
		lv := &w.levels[t.level]
		lv.slots[t.slot][t.idx] = nil
		lv.liveIn[t.slot]--
		if lv.liveIn[t.slot] == 0 {
			lv.occupied &^= 1 << uint(t.slot)
			lv.slots[t.slot] = lv.slots[t.slot][:0]
		}
	}
	t.armed = false
	w.live--
	if w.min == t {
		w.min = nil
	}
}

func compactOverflow(w *timerWheel) {
	live := w.overflow[:0]
	for _, t := range w.overflow {
		if t != nil {
			t.idx = int32(len(live))
			live = append(live, t)
		}
	}
	for i := len(live); i < len(w.overflow); i++ {
		w.overflow[i] = nil
	}
	w.overflow = live
}

// advance syncs the wheel clock to the engine clock, cascading every slot
// that became current at its level down to finer levels. The fast path —
// no 64 ns boundary crossed — is one shift and compare, which is what the
// per-event dispatch merge pays. Entries never live in the past when this
// runs: the engine fires all due events before moving its clock.
func (w *timerWheel) advance(now Time) {
	if now>>wheelBits == w.cur>>wheelBits {
		w.cur = now
		return
	}
	old := w.cur
	w.cur = now
	for l := 1; l < wheelLevels; l++ {
		sh := uint(wheelBits * l)
		if now>>sh == old>>sh {
			return // no boundary crossed at this level or above
		}
		lv := &w.levels[l]
		s := int32(now>>sh) & (wheelSlots - 1)
		if lv.liveIn[s] == 0 {
			continue
		}
		entries := lv.slots[s]
		lv.slots[s] = entries[:0]
		lv.liveIn[s] = 0
		lv.occupied &^= 1 << uint(s)
		for _, t := range entries {
			if t != nil {
				w.place(t) // lands strictly below level l
			}
		}
	}
	// Crossing the top level's window boundary re-files the overflow list;
	// entries still beyond the span go straight back.
	if len(w.overflow) > 0 && now>>(wheelBits*wheelLevels) != old>>(wheelBits*wheelLevels) {
		entries := w.overflow
		w.overflow = nil
		w.overLive = 0
		for _, t := range entries {
			if t != nil {
				w.place(t)
			}
		}
	}
}

// peek returns the earliest live timer and its merge key. The caller
// guarantees live > 0. The wheel clock is synced first, so the window
// ordering invariant (level l strictly precedes level l+1, slot order is
// time order within a level) holds and the answer is the first live entry
// of the first occupied slot of the lowest occupied level.
func (w *timerWheel) peek(now Time) (heapKey, *Timer) {
	if w.min == nil {
		// The slot scan below needs cascades current; syncing only here —
		// not on the cache-hit path — keeps the per-dispatch merge at one
		// pointer read. Cascading re-files timers but never changes which
		// one is earliest, so a cached minimum stays valid however far the
		// wheel clock trails. Arm syncs before placing, so entries are
		// always filed against a current clock.
		w.advance(now)
		w.recomputeMin()
	}
	return heapKey{at: w.min.at, seq: w.min.ord}, w.min
}

// recomputeMin rescans for the earliest live timer. Level 0 slots hold one
// exact instant each with entries already in ordering-word order, so the
// first live entry wins outright; a coarser slot is scanned for its
// earliest (time, ord) pair. Runs only after the cached minimum fired or
// was disarmed, and touches exactly one slot.
func (w *timerWheel) recomputeMin() {
	for l := 0; l < wheelLevels; l++ {
		lv := &w.levels[l]
		if lv.occupied == 0 {
			continue
		}
		s := bits.TrailingZeros64(lv.occupied)
		if l == 0 {
			for _, t := range lv.slots[s] {
				if t != nil {
					w.min = t
					return
				}
			}
		}
		var best *Timer
		for _, t := range lv.slots[s] {
			if t != nil && (best == nil || t.at < best.at || (t.at == best.at && t.ord < best.ord)) {
				best = t
			}
		}
		w.min = best
		return
	}
	var best *Timer
	for _, t := range w.overflow {
		if t != nil && (best == nil || t.at < best.at || (t.at == best.at && t.ord < best.ord)) {
			best = t
		}
	}
	w.min = best
}
