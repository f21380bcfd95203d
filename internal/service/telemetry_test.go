package service

import (
	"encoding/json"
	"slices"
	"testing"

	"aqueue/internal/sim"
	"aqueue/internal/stats"
)

// TestPipeMeterMatchesMeter: the meter summary a full snapshot computes
// from a pipe's TX count equals, field for field and byte for byte once
// marshalled, a stats.Meter fed each window's TX bytes at the window's last
// nanosecond — at window 0, over idle windows, busy ones and the idle tail
// after the load detaches.
func TestPipeMeterMatchesMeter(t *testing.T) {
	cfg := testConfig()
	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]*stats.Meter, len(f.pipes))
	last := make([]uint64, len(f.pipes))
	for i := range ref {
		ref[i] = stats.NewMeter(cfg.Window)
	}
	check := func() {
		t.Helper()
		snap := f.Snapshot(true)
		for i, ps := range snap.Pipes {
			want := ref[i].Stats()
			got, _ := json.Marshal(ps.Meter)
			wantJSON, _ := json.Marshal(want)
			if ps.Meter == nil || *ps.Meter != want || string(got) != string(wantJSON) {
				t.Fatalf("window %d, pipe %s: meter %s, stats.Meter %s", f.Window(), ps.Name, got, wantJSON)
			}
		}
	}
	busy := 0
	advance := func(n int) {
		for ; n > 0; n-- {
			f.AdvanceWindow()
			boundary := sim.Time(f.Window()) * cfg.Window
			for i, fp := range f.pipes {
				tx := fp.pipe.Stats().TxBytes
				if tx > last[i] {
					busy++
				}
				ref[i].Add(boundary-1, int(tx-last[i]))
				last[i] = tx
			}
			check()
		}
	}

	check() // window 0: nothing metered yet
	advance(3)
	d, err := f.Attach(LoadSpec{Kind: "fixed", Size: 20_000, Load: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	advance(10)
	f.Detach(d.ID)
	advance(20)
	t.Logf("%d busy pipe-windows", busy)
	if busy == 0 {
		t.Fatal("no window carried traffic: the busy arm checked nothing")
	}
}

// TestPipeSeriesKeepsLastWindows: a full snapshot's per-pipe series is the
// Gbps of the last maxSeriesPoints windows, oldest first, each the Gbps the
// boundary snapshot of its window reported; before the first window it is
// absent.
func TestPipeSeriesKeepsLastWindows(t *testing.T) {
	f, err := NewFabric(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range f.Snapshot(true).Pipes {
		if ps.Series != nil {
			t.Fatalf("window 0, pipe %s: series %v, want none", ps.Name, ps.Series)
		}
	}
	if _, err := f.Attach(LoadSpec{Kind: "fixed", Size: 20_000, Load: 0.5}); err != nil {
		t.Fatal(err)
	}
	gbps := make([][]float64, len(f.pipes))
	busy := false
	for w := 0; w < maxSeriesPoints+10; w++ {
		for i, ps := range f.AdvanceWindow().Pipes {
			gbps[i] = append(gbps[i], ps.Gbps)
			busy = busy || ps.Gbps > 0
		}
		if w == 2 || w == maxSeriesPoints+9 {
			for i, ps := range f.Snapshot(true).Pipes {
				want := gbps[i][max(0, len(gbps[i])-maxSeriesPoints):]
				if !slices.Equal(ps.Series, want) {
					t.Fatalf("window %d, pipe %s: series %v, want %v", f.Window(), ps.Name, ps.Series, want)
				}
			}
		}
	}
	if !busy {
		t.Fatal("no window carried traffic: the series compared only zeros")
	}
}
