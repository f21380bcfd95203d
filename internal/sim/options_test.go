package sim

import "testing"

// TestDefaultOptionsEverythingOn pins the one default: cooperative domains.
func TestDefaultOptionsEverythingOn(t *testing.T) {
	if o, want := DefaultOptions(), (Options{}); o != want {
		t.Fatalf("DefaultOptions() = %+v, want %+v", o, want)
	}
}

func TestNewEngineCapturesOptionsAtConstruction(t *testing.T) {
	e := NewEngine(WithParallelDomains(true))
	if o, want := e.Options(), (Options{ParallelDomains: true}); o != want {
		t.Fatalf("engine options = %+v, want %+v", o, want)
	}
	// A bare engine gets exactly the constant defaults.
	if e2 := NewEngine(); e2.Options() != DefaultOptions() {
		t.Fatalf("bare engine options = %+v, want DefaultOptions", e2.Options())
	}
}
