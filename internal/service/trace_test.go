package service

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"aqueue/internal/control"
	"aqueue/internal/core"
	"aqueue/internal/sim"
	"aqueue/internal/units"
)

// TestTraceTailPinned pins the daemon's trace reply: a fixed dumbbell and a
// fixed star session, each with an ECN ingress grant that marks under a
// DCTCP driver and a tight drop grant that drops under a CUBIC driver, must
// leave a ring tail whose JSON hashes to the recorded FNV-64a, with every
// event kind (send, recv, aq-mark, aq-drop) in it. No fingerprint folds the
// trace, so this is the one gate on which events the packet path reports,
// in what order, and under which label.
func TestTraceTailPinned(t *testing.T) {
	for _, tc := range []struct {
		topo, sw string
		hosts    int
		want     string
	}{
		{"dumbbell", "S1", 2, "6ac750a0336fabda"},
		{"star", "SW", 4, "48306e18c0277e93"},
	} {
		t.Run(tc.topo, func(t *testing.T) {
			cfg := Config{Topo: tc.topo, Hosts: tc.hosts, Window: 200 * sim.Microsecond, TraceLen: 2048}
			f, err := NewFabric(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Before any traffic the reply carries an empty list, not null.
			if b, _ := json.Marshal(f.TraceTail(cfg.TraceLen)); string(b) != "[]" {
				t.Fatalf("empty ring's tail marshals to %s, want []", b)
			}
			tbl := f.LookupTable(tc.sw, control.Ingress)
			ecn, err := f.Ctrl().Grant(control.Request{Tenant: "ecn", Mode: control.Absolute,
				Bandwidth: 1 * units.Gbps, CC: core.ECNType, ECNThreshold: 5_000}, tbl)
			if err != nil {
				t.Fatal(err)
			}
			drop, err := f.Ctrl().Grant(control.Request{Tenant: "drop", Mode: control.Absolute,
				Bandwidth: 500 * units.Mbps, Limit: 20_000}, tbl)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range []LoadSpec{
				{Tenant: "ecn", AQ: ecn.ID, Kind: "fixed", Size: 60_000, Load: 0.3, CC: "dctcp"},
				{Tenant: "drop", AQ: drop.ID, Kind: "fixed", Size: 60_000, Load: 0.2, CC: "cubic"},
			} {
				if _, err := f.Attach(spec); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 30; i++ {
				f.AdvanceWindow()
			}
			tail := f.TraceTail(cfg.TraceLen)
			kinds := map[string]int{}
			for _, e := range tail {
				kinds[e.Kind.String()]++
			}
			for _, k := range []string{"send", "recv", "aq-mark", "aq-drop"} {
				if kinds[k] == 0 {
					t.Errorf("no %s event in the tail: %v", k, kinds)
				}
			}
			b, err := json.Marshal(tail)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(b)
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
				t.Errorf("trace tail of %d events (%v) hashes to %s, want %s", len(tail), kinds, got, tc.want)
			}
		})
	}
}
