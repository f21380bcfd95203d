package sim

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestTimerFiresAtArmedInstant(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := e.NewTimer(func() { fired = append(fired, e.Now()) })
	tm.Arm(100)
	e.Run()
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("fired = %v, want [100]", fired)
	}
	if tm.Pending() {
		t.Fatal("timer still pending after firing")
	}
	// Re-arm after firing: the same handle goes around again.
	tm.ArmAfter(50)
	e.Run()
	if len(fired) != 2 || fired[1] != 150 {
		t.Fatalf("fired = %v, want [100 150]", fired)
	}
}

func TestTimerSameInstantOrdersWithHeapEvents(t *testing.T) {
	// A timer armed between two heap schedules for the same instant fires
	// between them: the merge runs on the shared scheduling sequence, so
	// lane choice is invisible — the order a single priority queue produces.
	e := NewEngine()
	var order []string
	e.At(20, func() { order = append(order, "a") })
	tm := e.NewTimer(func() { order = append(order, "timer") })
	tm.Arm(20)
	e.At(20, func() { order = append(order, "b") })
	e.Run()
	want := []string{"a", "timer", "b"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTimerRearmDrawsFreshOrderingWord(t *testing.T) {
	// Re-arming must order the timer among same-instant events as a fresh
	// schedule would: a moved timer queues behind what was scheduled for
	// its new instant before the move.
	e := NewEngine()
	var order []string
	tm := e.NewTimer(func() { order = append(order, "timer") })
	tm.Arm(10)
	e.At(20, func() { order = append(order, "a") })
	tm.Arm(20) // after "a": must fire after it
	e.At(20, func() { order = append(order, "b") })
	e.Run()
	want := []string{"a", "timer", "b"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTimerPullInAcrossSlotBoundary(t *testing.T) {
	// A timer parked far out is pulled in to a near deadline — the RTO
	// pull-in move when the estimate shrinks. The old entry must vanish (no
	// double fire), and the timer must fire at the new instant.
	e := NewEngine()
	fired := 0
	var at Time
	tm := e.NewTimer(func() { fired++; at = e.Now() })
	tm.Arm(500_000)
	tm.Arm(37) // a move of the armed timer, not a second entry
	e.Run()
	if fired != 1 || at != 37 {
		t.Fatalf("fired %d times at %v, want once at 37", fired, at)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after pull-in fire, want 0", e.Pending())
	}
}

func TestTimerPushOutAcrossSlotBoundary(t *testing.T) {
	// The opposite move: a near timer pushed far out. Heap events in
	// between must fire first and exactly once.
	e := NewEngine()
	var order []Time
	tm := e.NewTimer(func() { order = append(order, e.Now()) })
	tm.Arm(10)
	tm.Arm(1_000_000)
	e.At(5000, func() { order = append(order, e.Now()) })
	e.Run()
	if len(order) != 2 || order[0] != 5000 || order[1] != 1_000_000 {
		t.Fatalf("order = %v, want [5000 1000000]", order)
	}
}

func TestTimerDisarmThenRearmSameTick(t *testing.T) {
	// Disarm immediately followed by re-arm at the very same tick: the
	// removed entry must not resurrect, and the re-armed instance fires
	// once with a fresh sequence number.
	e := NewEngine()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	tm.Arm(40)
	tm.Disarm()
	if tm.Pending() {
		t.Fatal("timer pending after disarm")
	}
	tm.Arm(40)
	if !tm.Pending() || tm.Time() != 40 {
		t.Fatalf("pending=%v time=%v after rearm, want true/40", tm.Pending(), tm.Time())
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	// And at the current instant: disarm/rearm at Now() while events at the
	// same instant are still being dispatched.
	e2 := NewEngine()
	fired = 0
	var tm2 *Timer
	tm2 = e2.NewTimer(func() { fired++ })
	e2.At(10, func() {
		tm2.Arm(10) // arm at the instant being dispatched
		tm2.Disarm()
		tm2.Arm(10)
	})
	e2.Run()
	if fired != 1 {
		t.Fatalf("same-tick disarm/rearm at Now(): fired %d times, want 1", fired)
	}
}

func TestTimerDisarmLeavesNoTombstone(t *testing.T) {
	// A disarmed timer leaves the timer heap at once: Pending stays exact
	// and the engine has literally nothing to do.
	e := NewEngine()
	timers := make([]*Timer, 1000)
	for i := range timers {
		timers[i] = e.NewTimer(func() {})
		timers[i].Arm(Time(10 + i))
	}
	if e.Pending() != 1000 {
		t.Fatalf("Pending() = %d, want 1000", e.Pending())
	}
	for _, tm := range timers {
		tm.Disarm()
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after disarm, want 0", e.Pending())
	}
	if e.Step() {
		t.Fatal("Step fired something after all timers were disarmed")
	}
	// Double disarm is a no-op.
	timers[0].Disarm()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after double disarm, want 0", e.Pending())
	}
}

func TestPendingCountsLiveWheelTimers(t *testing.T) {
	// Pending must see both lanes: heap events plus armed timers, through
	// arm/disarm/fire churn.
	e := NewEngine()
	tm := e.NewTimer(func() {})
	tm.Arm(100)
	other := e.NewTimer(func() {})
	other.Arm(50)
	e.At(60, func() {})
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3", e.Pending())
	}
	other.Disarm()
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d after disarm, want 2", e.Pending())
	}
	if !e.Step() { // fires the heap event at 60
		t.Fatal("no event to fire")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after heap fire, want 1 (the timer)", e.Pending())
	}
	tm.Arm(70)
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after rearm, want 1", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", e.Pending())
	}
}

func TestTimerOnRunUntilDeadlineFiresInThatCall(t *testing.T) {
	// A timer re-armed for exactly a RunUntil deadline T must fire inside
	// the call that runs to T — never be left pending for the next one.
	// The service steps its fabric this way, one window per call.
	c := NewCluster(1)
	e := c.Engine()
	var firedAt Time
	tm := e.NewTimer(func() { firedAt = e.Now() })
	tm.Arm(500)
	e.At(500, func() { tm.Arm(2 * Microsecond) }) // re-arm onto the deadline
	for _, deadline := range []Time{Microsecond, 2 * Microsecond} {
		c.RunUntil(deadline)
	}
	if firedAt != 2*Microsecond {
		t.Fatalf("timer fired at %v, want exactly the 2us deadline", firedAt)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after run, want 0", e.Pending())
	}
}

func TestTimerLongHorizonCascades(t *testing.T) {
	// Deadlines across fifteen orders of magnitude, from 3 ns to 2^45 ns,
	// fire in time order with nothing lost as the clock jumps between
	// them.
	e := NewEngine()
	deadlines := []Time{
		3,
		1000,
		300_000,
		20_000_000,
		900_000_000,
		60_000_000_000,
		3_000_000_000_000,
		Time(1) << 45,
	}
	var fired []Time
	for _, d := range deadlines {
		tm := e.NewTimer(func() { fired = append(fired, e.Now()) })
		tm.Arm(d)
	}
	e.Run()
	if len(fired) != len(deadlines) {
		t.Fatalf("fired %d timers, want %d", len(fired), len(deadlines))
	}
	for i, d := range deadlines {
		if fired[i] != d {
			t.Fatalf("fired[%d] = %v, want %v", i, fired[i], d)
		}
	}
}

func TestTimerRearmAllocationFree(t *testing.T) {
	// The whole point of the handle API: a re-arm in steady state touches
	// no allocator. (The timer heap's arrays are grown by the first lap.)
	e := NewEngine()
	tm := e.NewTimer(func() {})
	tm.ArmAfter(100)
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		tm.ArmAfter(100)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("rearm+fire allocated %.1f times per run, want 0", allocs)
	}
}

var engineSink *Engine

// TestEngineConstructionDoesNotPreallocateSlots bounds what NewEngine
// allocates: the engine itself, one object of at most 256 B. Both lanes
// start as nil slices and grow with use; nothing is carved up front. A
// Timer, allocated one per NewTimer, stays in the 32 B size class: its key
// lives in the heap's key array, not in the handle.
func TestEngineConstructionDoesNotPreallocateSlots(t *testing.T) {
	if size := unsafe.Sizeof(Engine{}); size > 256 {
		t.Fatalf("Engine is %d B, want ≤ 256", size)
	}
	if size := unsafe.Sizeof(Timer{}); size > 32 {
		t.Fatalf("Timer is %d B, want ≤ 32", size)
	}
	if allocs := testing.AllocsPerRun(100, func() { engineSink = NewEngine() }); allocs != 1 {
		t.Fatalf("NewEngine allocated %.1f objects, want exactly 1", allocs)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		engineSink = NewEngine()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / n; b > 256 {
		t.Fatalf("NewEngine allocated %d B, want ≤ 256", b)
	}
}

// TestFiredTimerReleasesItsCallback: once a timer has fired (or been
// disarmed) and its owner dropped it, nothing in the engine may keep the
// timer — and so whatever its callback captures, in the simulator a whole
// flow's sender state — reachable. Each callback captures a 1 KB object
// with a finalizer; after Run every finalizer must run while the engine
// itself stays alive. The deadlines sit a few microseconds out, far enough
// that a structure re-filing entries as the clock approaches them would
// move each one more than once before it fires.
func TestFiredTimerReleasesItsCallback(t *testing.T) {
	const n = 64
	for _, name := range []string{"fired", "disarmed"} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			var freed atomic.Int32
			armCapturing(e, n, name == "disarmed", &freed)
			e.Run()
			for round := 0; round < 50 && freed.Load() < n; round++ {
				runtime.GC()
				time.Sleep(time.Millisecond) // let the finalizer goroutine run
			}
			if left := n - int(freed.Load()); left != 0 {
				t.Fatalf("%d of %d %s timers' callbacks still reachable", left, n, name)
			}
			runtime.KeepAlive(e)
		})
	}
}

// armCapturing arms n timers at 5000 + 37·i ns whose callbacks each capture
// a finalized 1 KB object, disarms them if asked, and drops every handle.
func armCapturing(e *Engine, n int, disarm bool, freed *atomic.Int32) {
	for i := 0; i < n; i++ {
		obj := new([1024]byte)
		runtime.SetFinalizer(obj, func(*[1024]byte) { freed.Add(1) })
		tm := e.NewTimer(func() { obj[0]++ })
		tm.Arm(Time(5000 + 37*i))
		if disarm {
			tm.Disarm()
		}
	}
}

// The reference the engine is held to: a deliberately naive scheduler — one
// flat slice, popped by linear minimum scan over (time, scheduling order)
// — with none of the engine's structure to share a bug with: no
// heaps, no root holes, no timer indices.
type naiveEntry struct {
	at  Time
	seq uint64
	id  int
}

type naive struct {
	now  Time
	seq  uint64
	q    []naiveEntry
	fire func(id int)
}

func (n *naive) Now() Time    { return n.now }
func (n *naive) Pending() int { return len(n.q) }

func (n *naive) after(d Time, id int) {
	n.q = append(n.q, naiveEntry{n.now + d, n.seq, id})
	n.seq++
}

func (n *naive) arm(id int, d Time) { n.disarm(id); n.after(d, id) }

func (n *naive) disarm(id int) {
	for i := range n.q {
		if n.q[i].id == id {
			n.q = append(n.q[:i], n.q[i+1:]...)
			return
		}
	}
}

func (x naiveEntry) before(y naiveEntry) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// least returns the index of the earliest entry, or -1 when none is queued.
func (n *naive) least() int {
	m := -1
	for i := range n.q {
		if m < 0 || n.q[i].before(n.q[m]) {
			m = i
		}
	}
	return m
}

func (n *naive) NextEventTime() (Time, bool) {
	if m := n.least(); m >= 0 {
		return n.q[m].at, true
	}
	return 0, false
}

func (n *naive) step(deadline Time) bool {
	m := n.least()
	if m < 0 || n.q[m].at > deadline {
		return false
	}
	x := n.q[m]
	n.q = append(n.q[:m], n.q[m+1:]...)
	n.now = x.at
	n.fire(x.id)
	return true
}

func (n *naive) stepOnce() bool { return n.step(maxTime) }

func (n *naive) run() {
	for n.step(maxTime) {
	}
}

func (n *naive) runUntil(deadline Time) {
	for n.step(deadline) {
	}
	n.now = max(n.now, deadline)
}

// engineSched adapts the engine to the same surface. Timer ids index its
// Timer handles; every other id is a one-shot heap event, filed through
// each of the heap's entry points in turn.
type engineSched struct {
	*Engine
	timers []*Timer
	fire   func(id int)
}

func (r *engineSched) after(d Time, id int) {
	if id%2 == 0 {
		r.After(d, func() { r.fire(id) })
	} else {
		r.AfterDetached(d, func(x any) { r.fire(x.(int)) }, id)
	}
}

func (r *engineSched) arm(id int, d Time) {
	if id%2 == 0 {
		r.timers[id].ArmAfter(d)
	} else {
		r.timers[id].Arm(r.Now() + d)
	}
}

func (r *engineSched) disarm(id int)          { r.timers[id].Disarm() }
func (r *engineSched) stepOnce() bool         { return r.Step() }
func (r *engineSched) run()                   { r.Run() }
func (r *engineSched) runUntil(deadline Time) { r.RunUntil(deadline) }

type scheduler interface {
	Now() Time
	Pending() int
	NextEventTime() (Time, bool)
	after(d Time, id int)
	arm(id int, d Time)
	disarm(id int)
	stepOnce() bool
	run()
	runUntil(deadline Time)
}

const scriptTimers = 32

// fired is one trace entry: which event fired (-1 after a script step, -2
// as a handler returns), when, and what Pending and NextEventTime read at
// that moment. Read from inside a firing handler, both must see past the
// firing lane's open root hole.
type fired struct {
	id      int
	at      Time
	pending int
	next    Time
	nextOK  bool
}

func record(sc scheduler, id int) fired {
	next, ok := sc.NextEventTime()
	return fired{id, sc.Now(), sc.Pending(), next, ok}
}

// runScript interprets a byte script against a scheduler and returns the
// trace. Top-level steps schedule one-shots (singly or up to three on one
// instant), arm, re-arm and disarm timers, pile runs of timers and one-shots onto one
// instant, park timers 2^42 ns out, and advance the clock by
// window-bounded RunUntil calls or single Steps. Firing handlers read the
// script too — they re-arm themselves, schedule same-instant follow-ups
// (the first refills the lane's root hole) and disarm or arm other timers
// — so a divergence in firing order also derails everything after it.
func runScript(script []byte, mk func(fire func(id int)) scheduler) []fired {
	pos := 0
	next := func() byte {
		if pos >= len(script) {
			return 0 // exhausted: every decode below reads as "do nothing"
		}
		pos++
		return script[pos-1]
	}
	// Delays span fifteen binary orders of magnitude: a 5-bit mantissa at
	// one of eight scales.
	delay := func() Time {
		b := next()
		return Time(b&31) << [8]uint{0, 2, 5, 9, 14, 20, 30, 42}[b>>5]
	}
	timer := func() int { return int(next()) % scriptTimers }

	var trace []fired
	var sc scheduler
	oneShot := scriptTimers
	after := func(d Time) {
		sc.after(d, oneShot)
		oneShot++
	}
	sc = mk(func(id int) {
		trace = append(trace, record(sc, id))
		switch next() % 8 {
		case 1:
			if id < scriptTimers {
				sc.arm(id, delay())
			} else {
				after(delay())
			}
		case 2:
			after(0)
		case 3:
			sc.disarm(timer())
		case 4:
			sc.arm(timer(), delay())
		case 5:
			after(delay())
			after(delay())
		}
		trace = append(trace, record(sc, -2))
	})
	for pos < len(script) {
		switch next() % 8 {
		case 0:
			after(delay())
		case 1:
			d := delay()
			for n := 1 + next()%3; n > 0; n-- {
				after(d)
			}
		case 2:
			sc.arm(timer(), delay())
		case 3:
			sc.disarm(timer())
		case 4:
			first, d, n := timer(), delay(), int(next()%48)
			for j := 0; j < n; j++ {
				if j%4 == 3 {
					after(d)
				} else {
					sc.arm((first+j)%scriptTimers, d)
				}
			}
		case 5:
			sc.runUntil(sc.Now() + delay())
		case 6:
			sc.stepOnce()
		case 7:
			sc.arm(timer(), 1<<42+delay())
		}
		trace = append(trace, record(sc, -1))
	}
	sc.run()
	return append(trace, record(sc, -1))
}

// FuzzEngineVsNaive holds the two-lane engine to the naive reference:
// identical (id, time) firing traces and identical Pending and
// NextEventTime at every fire and after every step, for any script. The
// seed corpus is twenty random scripts plus two committed shapes under
// testdata/fuzz — an incast (many timers on one instant) and a
// back-to-back burst — and runs under plain `go test`.
func FuzzEngineVsNaive(f *testing.F) {
	for seed := int64(1); seed <= 20; seed++ {
		script := make([]byte, 1024)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2048 {
			script = script[:2048] // bounds the clock well inside int64
		}
		got := runScript(script, func(fire func(int)) scheduler {
			r := &engineSched{Engine: NewEngine(), fire: fire}
			for id := 0; id < scriptTimers; id++ {
				r.timers = append(r.timers, r.NewTimer(func() { fire(id) }))
			}
			return r
		})
		want := runScript(script, func(fire func(int)) scheduler { return &naive{fire: fire} })
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("traces diverge at entry %d of %d/%d: engine %+v, naive %+v",
					i, len(got), len(want), got[min(i, len(got)-1)], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("engine trace has %d entries, naive %d", len(got), len(want))
		}
	})
}

// TestWheelOrderingProperty is the quick.Check analogue of
// TestHeapOrderingProperty for the timer lane: arbitrary
// deadlines and disarm masks must still fire in nondecreasing time order
// with an exact Pending count.
func TestWheelOrderingProperty(t *testing.T) {
	f := func(delays []uint32, disarmMask []bool) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		timers := make([]*Timer, 0, len(delays))
		for _, d := range delays {
			tm := e.NewTimer(func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
			tm.Arm(Time(d))
			timers = append(timers, tm)
		}
		live := len(timers)
		for i, tm := range timers {
			if i < len(disarmMask) && disarmMask[i] {
				tm.Disarm()
				live--
			}
		}
		if e.Pending() != live {
			return false
		}
		for i, tm := range timers {
			if i%5 == 2 && tm.Pending() {
				tm.Arm(tm.Time() + Time(i%9))
			}
		}
		e.Run()
		return ok && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
