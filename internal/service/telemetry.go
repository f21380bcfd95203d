package service

import (
	"aqueue/internal/control"
	"aqueue/internal/core"
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
// requested — the per-window Gbps series since the run started.
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
// per-pipe throughput history (downsampled to maxSeriesPoints buckets) —
// the expensive part, so only the explicit "stats" verb asks for it.
func (f *Fabric) Snapshot(series bool) Snapshot {
	s := Snapshot{
		Window:   f.window,
		NowNS:    int64(f.Now()),
		Tenants:  f.ctrl.Info(),
		Pipes:    make([]PipeSnap, len(f.pipes)),
		Switches: make([]SwitchSnap, len(f.switches)),
		Drivers:  make([]DriverSnap, len(f.order)),
	}
	for i := range f.pipes {
		fp := &f.pipes[i]
		ps := &s.Pipes[i]
		*ps = PipeSnap{Name: fp.name, PipeStats: fp.pipe.Stats(), Gbps: fp.lastGbps}
		if series {
			ps.Series = append([]float64(nil), fp.recent...)
			ms := fp.meter.Stats()
			ps.Meter = &ms
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
	for i, id := range f.order {
		s.Drivers[i] = f.drivers[id].Snap()
	}
	return s
}

// TraceEvent is the wire form of one trace-ring entry.
type TraceEvent struct {
	AtNS  int64  `json:"at_ns"`
	Kind  string `json:"kind"`
	Flow  uint64 `json:"flow,omitempty"`
	Src   int32  `json:"src"`
	Dst   int32  `json:"dst"`
	Seq   int64  `json:"seq,omitempty"`
	Size  int    `json:"size,omitempty"`
	Where string `json:"where,omitempty"`
}

// TraceTail returns the newest n ring events (oldest first). It returns
// nil when tracing is disabled.
func (f *Fabric) TraceTail(n int) []TraceEvent {
	if f.ring == nil || n <= 0 {
		return nil
	}
	evs := f.ring.Tail(n)
	out := make([]TraceEvent, len(evs))
	for i, e := range evs {
		out[i] = wireEvent(e)
	}
	return out
}

func wireEvent(e trace.Event) TraceEvent {
	return TraceEvent{
		AtNS:  int64(e.At),
		Kind:  e.Kind.String(),
		Flow:  uint64(e.Flow),
		Src:   int32(e.Src),
		Dst:   int32(e.Dst),
		Seq:   e.Seq,
		Size:  e.Size,
		Where: e.Where,
	}
}
