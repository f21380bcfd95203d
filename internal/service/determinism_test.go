package service

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"aqueue/internal/control"
)

// scriptChurn registers the reference mutation script used by the
// determinism gates: grants, attaches, a live reconfiguration, a detach
// and an idle-marking, all pinned to fixed window boundaries.
func scriptChurn(f *Fabric) {
	f.ScriptAt(0, func(f *Fabric) {
		g, err := f.Ctrl().Grant(control.Request{Tenant: "t1", Mode: control.Weighted, Weight: 1},
			f.LookupTable("S1", control.Ingress))
		if err != nil {
			panic(err)
		}
		if _, err := f.Attach(LoadSpec{Tenant: "t1", AQ: g.ID, Kind: "websearch", Load: 0.4}); err != nil {
			panic(err)
		}
	})
	f.ScriptAt(4, func(f *Fabric) {
		g, err := f.Ctrl().Grant(control.Request{Tenant: "t2", Mode: control.Weighted, Weight: 2},
			f.LookupTable("S1", control.Ingress))
		if err != nil {
			panic(err)
		}
		if _, err := f.Attach(LoadSpec{Tenant: "t2", AQ: g.ID, Kind: "fixed", Size: 50_000, Load: 0.3}); err != nil {
			panic(err)
		}
	})
	f.ScriptAt(8, func(f *Fabric) {
		if _, err := f.Ctrl().SetGuarantee(1, 0, 3); err != nil {
			panic(err)
		}
	})
	f.ScriptAt(12, func(f *Fabric) {
		if !f.Detach(2) {
			panic("scripted detach missed")
		}
		if !f.Ctrl().SetActive(2, false) {
			panic("scripted set_active missed")
		}
	})
}

func runScripted(t *testing.T, cfg Config, windows int) string {
	t.Helper()
	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scriptChurn(f)
	for i := 0; i < windows; i++ {
		f.AdvanceWindow()
	}
	return f.Fingerprint()
}

// TestFingerprintFoldsMarshaledSnapshots pins what the fingerprint hashes:
// FNV-64a over json.Marshal of every window's snapshot, each followed by a
// newline, recomputed here window by window on a scripted fabric.
func TestFingerprintFoldsMarshaledSnapshots(t *testing.T) {
	f, err := NewFabric(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	scriptChurn(f)
	h := fnv.New64a()
	for w := 1; w <= 16; w++ {
		b, err := json.Marshal(f.AdvanceWindow())
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(b, '\n'))
		if got, want := f.Fingerprint(), fmt.Sprintf("%016x/%d", h.Sum64(), w); got != want {
			t.Fatalf("window %d: Fingerprint() = %s, recomputed %s", w, got, want)
		}
	}
}

// TestScriptedRunFingerprintIdentical is the acceptance gate: a run with
// mutations scripted at fixed window boundaries is byte-identical across
// two executions, and stays identical when the same script is delivered
// through the Service run loop instead of synchronous calls.
func TestScriptedRunFingerprintIdentical(t *testing.T) {
	cfg := testConfig()
	const windows = 16

	a := runScripted(t, cfg, windows)
	b := runScripted(t, cfg, windows)
	if a != b {
		t.Fatalf("synchronous runs diverged:\n  %s\n  %s", a, b)
	}

	// Same script, but advanced by the service loop in stepped batches.
	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scriptChurn(f)
	s := Start(f, RunConfig{StartPaused: true})
	for _, n := range []int{3, 5, 8} {
		if err := s.Step(n); err != nil {
			t.Fatal(err)
		}
	}
	s.Quit()
	if got := f.Fingerprint(); got != a {
		t.Fatalf("service-driven run diverged from synchronous:\n  %s\n  %s", got, a)
	}
}

// TestConfigDomainsIsInert pins what Config.Domains means now that a
// fabric has one engine: a config that sets it builds one engine and
// replays the default config's scripted run byte for byte.
func TestConfigDomainsIsInert(t *testing.T) {
	cfg := testConfig()
	cfg.Domains = 2
	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f.SyncStats().Domains); got != 1 {
		t.Fatalf("Domains: 2 built %d engines, want 1", got)
	}
	const windows = 12
	if got, want := runScripted(t, cfg, windows), runScripted(t, testConfig(), windows); got != want {
		t.Fatalf("Domains: 2 changed the run:\n  got  %s\n  want %s", got, want)
	}
}

// TestFingerprintSensitive guards against a fingerprint that ignores the
// simulation: changing the script must change the hash.
func TestFingerprintSensitive(t *testing.T) {
	cfg := testConfig()
	base := runScripted(t, cfg, 12)

	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scriptChurn(f)
	f.ScriptAt(6, func(f *Fabric) {
		if _, err := f.Attach(LoadSpec{Kind: "fixed", Size: 9000, Load: 0.1}); err != nil {
			panic(err)
		}
	})
	for i := 0; i < 12; i++ {
		f.AdvanceWindow()
	}
	if f.Fingerprint() == base {
		t.Fatal("extra scripted attach left the fingerprint unchanged")
	}
}

// TestScriptPastWindowPanics pins the misuse guard.
func TestScriptPastWindowPanics(t *testing.T) {
	f, err := NewFabric(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f.AdvanceWindow()
	f.AdvanceWindow()
	defer func() {
		if recover() == nil {
			t.Fatal("scripting a completed window did not panic")
		}
	}()
	f.ScriptAt(1, func(*Fabric) {})
}

// TestFractionalWeightReplayIdentical: weights whose float sums depend on
// the order they are added in must still replay to one fingerprint — the
// controller sums its grants in one order on every run.
func TestFractionalWeightReplayIdentical(t *testing.T) {
	run := func() string {
		f, err := NewFabric(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range []float64{0.1, 0.2, 0.3, 0.7, 1.1} {
			grantWeighted(t, f, fmt.Sprintf("t%d", i), w)
		}
		for i := 0; i < 3; i++ {
			f.AdvanceWindow()
		}
		return f.Fingerprint()
	}
	want := run()
	for i := 1; i < 40; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d fingerprinted %s, run 0 %s", i, got, want)
		}
	}
}

// TestFabricRunAccounting: SyncStats counts every completed window, counts
// a run only for a window that fired events, and reads zero in the retired
// partition fields.
func TestFabricRunAccounting(t *testing.T) {
	f, err := NewFabric(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n := f.eng.Pending(); n != 0 {
		t.Fatalf("fresh fabric has %d pending events, want 0", n)
	}
	fired := 0
	f.eng.At(f.cfg.Window+1, func() { fired++ }) // inside the second window
	for i := 0; i < 3; i++ {
		f.AdvanceWindow()
	}
	st := f.SyncStats()
	if fired != 1 || st.Windows != 3 {
		t.Fatalf("fired %d over %d windows; want 1 and 3", fired, st.Windows)
	}
	if len(st.Domains) != 1 || st.Domains[0].Runs != 1 || st.AdvanceNS != st.Domains[0].BusyNS {
		t.Fatalf("sync stats %+v: want one domain with 1 run whose busy time is AdvanceNS", st)
	}
	if st.Flushes != 0 || st.FlushedMsgs != 0 || st.BarrierNS != 0 || st.Parallel {
		t.Fatalf("sync stats %+v: retired fields must read zero", st)
	}
}
