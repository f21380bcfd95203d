package sim

import "testing"

func TestNewEngineCapturesOptionsAtConstruction(t *testing.T) {
	e := NewEngine(WithParallelDomains(true))
	if o, want := e.Options(), (Options{ParallelDomains: true}); o != want {
		t.Fatalf("engine options = %+v, want %+v", o, want)
	}
	// A bare engine gets exactly the zero Options.
	if e2 := NewEngine(); e2.Options() != (Options{}) {
		t.Fatalf("bare engine options = %+v, want the zero Options", e2.Options())
	}
}
