package service

import (
	"aqueue/internal/control"
	"aqueue/internal/core"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/topo"
	"aqueue/internal/trace"
)

// Snapshot is the fabric's state at one window boundary. Every field is a
// pure function of the simulation (no wall-clock, no pointer identity),
// so the per-window snapshot stream doubles as the determinism
// fingerprint: byte-identical runs produce byte-identical snapshots.
type Snapshot struct {
	// Window counts completed windows; NowNS is Window times the window
	// size.
	Window   uint64              `json:"window"`
	NowNS    int64               `json:"now_ns"`
	Tenants  []control.GrantInfo `json:"tenants,omitempty"`
	Pipes    []PipeSnap          `json:"pipes,omitempty"`
	Switches []SwitchSnap        `json:"switches,omitempty"`
	Drivers  []DriverSnap        `json:"drivers,omitempty"`
}

// PipeSnap is one telemetered link: cumulative wire counters plus the
// throughput of the last completed window, and — when a full snapshot is
// requested — the Gbps of the last maxSeriesPoints windows and the meter
// summary over the whole run.
type PipeSnap struct {
	Name string `json:"name"`
	topo.PipeStats
	Gbps   float64           `json:"gbps"`
	Series []float64         `json:"series_gbps,omitempty"`
	Meter  *stats.MeterStats `json:"meter,omitempty"`
}

// SwitchSnap is one switch's forwarding and pipeline-table counters.
type SwitchSnap struct {
	Name string `json:"name"`
	topo.SwitchStats
	Ingress core.TableStats `json:"ingress"`
	Egress  core.TableStats `json:"egress"`
}

// maxSeriesPoints bounds the per-pipe series in a full snapshot so
// long-running daemons do not stream unbounded payloads.
const maxSeriesPoints = 64

// Snapshot builds the boundary snapshot. series additionally includes the
// per-pipe throughput of the last maxSeriesPoints windows and the pipe's
// meter summary — the expensive part, so only the explicit "stats" verb
// asks for it.
func (f *Fabric) Snapshot(series bool) Snapshot {
	s := Snapshot{
		Window:   f.window,
		NowNS:    int64(f.Now()),
		Tenants:  f.ctrl.Info(),
		Pipes:    make([]PipeSnap, len(f.pipes)),
		Switches: make([]SwitchSnap, len(f.switches)),
		Drivers:  make([]DriverSnap, len(f.drivers)),
	}
	for i := range f.pipes {
		fp := &f.pipes[i]
		ps := &s.Pipes[i]
		*ps = PipeSnap{Name: fp.name, PipeStats: fp.pipe.Stats(), Gbps: fp.lastGbps}
		if series {
			if n := fp.recent.Len(); n > 0 {
				ps.Series = make([]float64, n)
				for j := range ps.Series {
					ps.Series[j] = fp.recent.At(j)
				}
			}
			ps.Meter = f.pipeMeter(fp)
		}
	}
	for i, fs := range f.switches {
		s.Switches[i] = SwitchSnap{
			Name:        fs.name,
			SwitchStats: fs.sw.Stats(),
			Ingress:     fs.sw.Ingress.Stats(),
			Egress:      fs.sw.Egress.Stats(),
		}
	}
	for i, d := range f.drivers {
		s.Drivers[i] = d.Snap()
	}
	return s
}

// pipeMeter is the summary a stats.Meter of bucket width Window would
// report had it been fed each window's TX bytes at the window's last
// nanosecond: window w (1-based) fills bucket w−1, so the range runs from
// Window−1 to w·Window−1 and the total is the TX count at the last
// boundary. It is computed from that count and the window count alone, so
// the daemon keeps no per-window buckets.
func (f *Fabric) pipeMeter(fp *fabricPipe) *stats.MeterStats {
	w := f.cfg.Window
	ms := &stats.MeterStats{TotalBytes: fp.lastTx, BucketNS: int64(w), Buckets: int(f.window)}
	if f.window > 0 {
		end := sim.Time(f.window) * w
		ms.FirstNS, ms.LastNS = int64(w-1), int64(end-1)
		ms.AvgGbps = stats.RateGbps(fp.lastTx, end)
	}
	return ms
}

// TraceTail returns the newest n ring events (oldest first). It returns
// nil when tracing is disabled or n <= 0, and an empty slice (the reply's
// "events":[]) while the ring is empty.
func (f *Fabric) TraceTail(n int) []trace.Event {
	if f.ring == nil || n <= 0 {
		return nil
	}
	if evs := f.ring.Tail(n); evs != nil {
		return evs
	}
	return []trace.Event{}
}
