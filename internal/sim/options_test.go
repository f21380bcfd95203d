package sim

import "testing"

// TestDefaultOptionsEverythingOn pins the one default: burst draining on
// at DefaultBurstSize, cooperative domains.
func TestDefaultOptionsEverythingOn(t *testing.T) {
	if o, want := DefaultOptions(), (Options{BurstSize: DefaultBurstSize}); o != want {
		t.Fatalf("DefaultOptions() = %+v, want %+v", o, want)
	}
}

func TestNewEngineCapturesOptionsAtConstruction(t *testing.T) {
	e := NewEngine(WithBurstSize(3), WithParallelDomains(true))
	if o, want := e.Options(), (Options{BurstSize: 3, ParallelDomains: true}); o != want {
		t.Fatalf("engine options = %+v, want %+v", o, want)
	}
	// A bare engine gets exactly the constant defaults.
	if e2 := NewEngine(); e2.Options() != DefaultOptions() {
		t.Fatalf("bare engine options = %+v, want DefaultOptions", e2.Options())
	}
}

func TestWithBurstSizeClampsNegative(t *testing.T) {
	e := NewEngine(WithBurstSize(-5))
	if got := e.Options().BurstSize; got != 0 {
		t.Fatalf("BurstSize = %d after WithBurstSize(-5), want 0", got)
	}
}

// TestReserveOrdMatchesAtOrdered pins the burst protocol's ordering
// contract: a ReserveOrd/ScheduleReserved pair must file an event under
// exactly the key AtOrdered would have drawn at the same logical point, so
// same-instant events interleave identically on both paths.
func TestReserveOrdMatchesAtOrdered(t *testing.T) {
	run := func(reserved bool) []string {
		e := NewEngine()
		var order []string
		e.AtOrdered(2, 10, func(any) { order = append(order, "a") }, nil)
		if reserved {
			ord := e.ReserveOrd(1)
			e.ScheduleReserved(10, ord, func(any) { order = append(order, "b") }, nil)
		} else {
			e.AtOrdered(1, 10, func(any) { order = append(order, "b") }, nil)
		}
		e.AtOrdered(1, 10, func(any) { order = append(order, "c") }, nil)
		e.Run()
		return order
	}
	want := run(false)
	got := run(true)
	if len(got) != 3 {
		t.Fatalf("fired %d events, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v via ScheduleReserved, want %v (the AtOrdered order)", got, want)
		}
	}
}

// TestInlineRunnableGates exercises the inline-eligibility predicate
// directly: no bounded dispatch, a deadline bound, an earlier heap event,
// and an earlier wheel timer must each defeat inlining.
func TestInlineRunnableGates(t *testing.T) {
	e := NewEngine()
	ord := e.ReserveOrd(1)
	if e.InlineRunnable(10, ord) {
		t.Fatal("inline allowed outside bounded dispatch")
	}
	e.deadline = 100
	if !e.InlineRunnable(10, ord) {
		t.Fatal("inline refused with nothing else pending")
	}
	if e.InlineRunnable(101, ord) {
		t.Fatal("inline allowed past the dispatch deadline")
	}
	e.At(5, func() {})
	if e.InlineRunnable(10, ord) {
		t.Fatal("inline allowed ahead of an earlier heap event")
	}
	e.deadline = 0
	e.Run()

	e2 := NewEngine()
	tm := e2.NewTimer(func() {})
	tm.Arm(7)
	e2.deadline = 100
	if e2.InlineRunnable(10, e2.ReserveOrd(1)) {
		t.Fatal("inline allowed ahead of an earlier wheel timer")
	}
	tm.Disarm()
	if !e2.InlineRunnable(10, e2.ReserveOrd(1)) {
		t.Fatal("inline refused after the only timer was disarmed")
	}
	e2.deadline = 0
}

// TestAdvanceInlineCountsAndMovesClock checks the inline bookkeeping the
// events-per-packet figures are built on.
func TestAdvanceInlineCountsAndMovesClock(t *testing.T) {
	e := NewEngine()
	e.AdvanceInline(42)
	if e.Now() != 42 {
		t.Fatalf("Now() = %v after AdvanceInline(42)", e.Now())
	}
	if s := e.Stats(); s.Inlined != 1 {
		t.Fatalf("Inlined = %d, want 1", s.Inlined)
	}
}
