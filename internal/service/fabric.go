// Package service hosts a long-running simulated fabric: a topology on
// one engine with an AQ controller that advances in fixed windows and
// accepts runtime mutations — tenant grants, guarantee reconfigurations,
// open-loop load attach/detach — only at window boundaries. That single
// rule is what keeps the daemon deterministic: a mutation script keyed by
// window index replays byte-identically no matter how the mutations were
// delivered (in-process, over the wire, or from a test), because the
// engine never observes a change mid-window.
//
// The package splits in two layers. Fabric is synchronous and
// single-goroutine: build it, script mutations, call AdvanceWindow in a
// loop. Service (service.go) wraps a Fabric in a run loop with a command
// mailbox, run control (pause/step/advance-to/quit) and snapshot
// streaming — the engine room of cmd/aqsimd.
package service

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"aqueue/internal/control"
	"aqueue/internal/core"
	"aqueue/internal/ring"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/trace"
	"aqueue/internal/units"
)

// Config describes the hosted fabric. Zero values select the defaults of
// DefaultConfig.
type Config struct {
	// Topo picks the topology: "dumbbell" (senders left, receivers right,
	// shared trunk) or "star" (first half of the hosts send to the second
	// half through one switch).
	Topo string
	// Hosts is the host count per dumbbell side, or the total star size
	// (even, ≥2).
	Hosts int
	// Domains is ignored: a fabric runs on one engine. The field is kept
	// only so existing callers that set it still compile; no flag or wire
	// verb sets it.
	Domains int
	// Window is the mutation quantum: the fabric advances in steps of
	// this size and applies mutations only on its boundaries.
	Window sim.Time
	// Edge and Trunk configure the link classes; zero Rate selects
	// topo.DefaultSim for both.
	Edge, Trunk topo.LinkSpec
	// TraceLen bounds the event ring attached to hosts and switches;
	// 0 disables tracing entirely.
	TraceLen int
	// CC is the default congestion-control algorithm for attached load
	// drivers that do not name their own.
	CC string
	// FluidEpoch is the integration epoch of fluid load drivers (kind
	// "fluid"); zero selects fluid.DefaultEpoch.
	FluidEpoch sim.Time
}

// DefaultConfig is an 8x8 dumbbell advancing in 1 ms windows with the
// paper's §5.1 link parameters.
func DefaultConfig() Config {
	return Config{
		Topo:     "dumbbell",
		Hosts:    8,
		Window:   sim.Millisecond,
		TraceLen: 4096,
		CC:       "cubic",
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Topo == "" {
		c.Topo = d.Topo
	}
	if c.Hosts <= 0 {
		c.Hosts = d.Hosts
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.Edge.Rate == 0 {
		c.Edge = topo.DefaultSim()
	}
	if c.Trunk.Rate == 0 {
		c.Trunk = topo.DefaultSim()
	}
	if c.CC == "" {
		c.CC = d.CC
	}
	return c
}

// fabricPipe is one telemetered link: the TX counter high-water mark from
// the previous boundary and the throughput of recent windows.
type fabricPipe struct {
	name   string
	pipe   *topo.Pipe
	lastTx uint64
	// lastGbps is the throughput of the most recent completed window;
	// recent keeps the last maxSeriesPoints of them for full snapshots.
	lastGbps float64
	recent   ring.Buffer[float64]
}

type fabricSwitch struct {
	name string
	sw   *topo.Switch
}

// Fabric is the synchronous core of the service: topology, controller,
// load drivers and telemetry, advanced window by window. It is not safe
// for concurrent use — Service serializes access through its mailbox.
type Fabric struct {
	cfg      Config
	eng      *sim.Engine
	ctrl     *control.Controller
	tables   map[string]*core.Table
	srcs     []*topo.Host
	dsts     []*topo.Host
	pipes    []fabricPipe
	switches []fabricSwitch
	capacity units.BitRate
	// ring is nil when tracing is off; components are handed it only
	// behind a nil check, because a nil *Ring in a trace.Sink is a non-nil
	// interface.
	ring *trace.Ring

	// fluidSw/fluidPipe anchor fluid load drivers: the ingress table the
	// entities' epochs run through and the shared link they account. Only
	// the dumbbell topology sets them — it has the one well-defined
	// bottleneck a fluid background contends on.
	fluidSw   *topo.Switch
	fluidPipe *topo.Pipe

	drivers map[uint32]*Driver
	order   []uint32 // attach order, for deterministic snapshots
	nextID  uint32

	window uint64
	script map[uint64][]func(*Fabric)
	// load counts the windows that fired events and their host wall time,
	// for SyncStats.
	load DomainLoad

	// fp folds every boundary snapshot into a running FNV-64a hash; two
	// runs with identical configs and identically-scheduled mutations
	// produce identical fingerprints. fpEnc writes each snapshot into it:
	// Encode writes exactly json.Marshal's bytes and a newline, without
	// a fresh byte slice per window.
	fp    hash.Hash64
	fpEnc *json.Encoder
}

// NewFabric builds the fabric described by cfg.
func NewFabric(cfg Config) (*Fabric, error) {
	cfg = cfg.withDefaults()
	f := &Fabric{
		cfg:     cfg,
		eng:     sim.NewEngine(),
		tables:  make(map[string]*core.Table),
		drivers: make(map[uint32]*Driver),
		script:  make(map[uint64][]func(*Fabric)),
		fp:      fnv.New64a(),
		nextID:  1,
	}
	f.fpEnc = json.NewEncoder(f.fp)
	if cfg.TraceLen > 0 {
		f.ring = trace.NewRing(cfg.TraceLen)
	}
	switch cfg.Topo {
	case "dumbbell":
		d := topo.NewDumbbell(f.eng, cfg.Hosts, cfg.Hosts, cfg.Edge, cfg.Trunk)
		f.srcs, f.dsts = d.Left, d.Right
		f.capacity = cfg.Trunk.Rate
		f.addSwitch("S1", d.S1)
		f.addSwitch("S2", d.S2)
		f.addPipe("S1->S2", d.Bottleneck)
		f.addPipe("S2->S1", d.ReverseTrunk)
		f.fluidSw, f.fluidPipe = d.S1, d.Bottleneck
		if f.ring != nil {
			for _, h := range append(append([]*topo.Host{}, d.Left...), d.Right...) {
				h.SetTrace(f.ring)
			}
		}
	case "star":
		if cfg.Hosts < 2 || cfg.Hosts%2 != 0 {
			return nil, fmt.Errorf("service: star needs an even host count >= 2, got %d", cfg.Hosts)
		}
		s := topo.NewStar(f.eng, cfg.Hosts, cfg.Edge)
		half := cfg.Hosts / 2
		f.srcs, f.dsts = s.Hosts[:half], s.Hosts[half:]
		f.capacity = cfg.Edge.Rate
		f.addSwitch("SW", s.SW)
		for i := half; i < cfg.Hosts; i++ {
			f.addPipe(fmt.Sprintf("SW->h%d", i), s.Down[i])
		}
		if f.ring != nil {
			for _, h := range s.Hosts {
				h.SetTrace(f.ring)
			}
		}
	default:
		return nil, fmt.Errorf("service: unknown topology %q", cfg.Topo)
	}
	f.ctrl = control.NewController(f.capacity)
	return f, nil
}

func (f *Fabric) addSwitch(name string, sw *topo.Switch) {
	f.switches = append(f.switches, fabricSwitch{name: name, sw: sw})
	f.tables[name+"/"+control.Ingress.String()] = sw.Ingress
	f.tables[name+"/"+control.Egress.String()] = sw.Egress
	if f.ring != nil {
		sw.SetTrace(f.ring)
	}
}

func (f *Fabric) addPipe(name string, p *topo.Pipe) {
	f.pipes = append(f.pipes, fabricPipe{name: name, pipe: p})
}

// Config returns the normalized configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Ctrl exposes the AQ controller for dispatching controller verbs.
func (f *Fabric) Ctrl() *control.Controller { return f.ctrl }

// Now returns the fabric's simulated clock (always a window boundary
// between AdvanceWindow calls).
func (f *Fabric) Now() sim.Time { return f.eng.Now() }

// Window returns the number of completed windows.
func (f *Fabric) Window() uint64 { return f.window }

// Capacity returns the guaranteed-link capacity grants are admitted
// against.
func (f *Fabric) Capacity() units.BitRate { return f.capacity }

// LookupTable resolves a pipeline table by switch name and position, the
// shape control.DispatchController wants.
func (f *Fabric) LookupTable(sw string, pos control.Position) *core.Table {
	return f.tables[sw+"/"+pos.String()]
}

// ScriptAt registers a mutation to run at the boundary entering window w
// (w completed windows, i.e. sim time w·Window). Scripting a window that
// already passed is a programming error and panics; scripted mutations
// are what the determinism gates replay.
func (f *Fabric) ScriptAt(w uint64, fn func(*Fabric)) {
	if w < f.window {
		panic(fmt.Sprintf("service: scripting window %d but %d already completed", w, f.window))
	}
	f.script[w] = append(f.script[w], fn)
}

// AdvanceWindow applies the mutations scripted for the current boundary,
// simulates one window, rolls the per-pipe telemetry and returns the
// boundary snapshot (folded into the run fingerprint).
func (f *Fabric) AdvanceWindow() Snapshot {
	if fns := f.script[f.window]; len(fns) > 0 {
		delete(f.script, f.window)
		for _, fn := range fns {
			fn(f)
		}
	}
	f.window++
	boundary := sim.Time(f.window) * f.cfg.Window
	processed, start := f.eng.Processed, time.Now()
	f.eng.RunUntil(boundary)
	if f.eng.Processed != processed {
		f.load.Runs++
		f.load.BusyNS += time.Since(start).Nanoseconds()
	}
	for i := range f.pipes {
		fp := &f.pipes[i]
		tx := fp.pipe.Stats().TxBytes
		delta := tx - fp.lastTx
		fp.lastTx = tx
		// bits per nanosecond is Gbps exactly.
		fp.lastGbps = float64(delta*8) / float64(f.cfg.Window)
		if fp.recent.Len() == maxSeriesPoints {
			fp.recent.Pop()
		}
		fp.recent.Push(fp.lastGbps)
	}
	snap := f.Snapshot(false)
	f.foldFingerprint(snap)
	return snap
}

func (f *Fabric) foldFingerprint(snap Snapshot) {
	if err := f.fpEnc.Encode(snap); err != nil {
		panic(fmt.Sprintf("service: snapshot not marshalable: %v", err))
	}
}

// Fingerprint returns the run's accumulated window-snapshot hash together
// with the window count. Two runs of the same config with the same
// mutations scripted at the same boundaries report identical strings.
func (f *Fabric) Fingerprint() string {
	return fmt.Sprintf("%016x/%d", f.fp.Sum64(), f.window)
}

// DomainLoad is the engine's execution accounting: how many windows fired
// events and how many host nanoseconds their runs took. Windows in which
// nothing fired are not counted.
type DomainLoad struct {
	Domain int    `json:"domain"`
	Runs   uint64 `json:"runs"`
	BusyNS int64  `json:"busy_ns"`
}

// SyncStats is the fabric's run accounting. Durations are host wall-clock
// — they never feed back into simulation results. Windows counts completed
// windows; AdvanceNS is the wall time of the windows that fired events,
// the one DomainLoad's BusyNS. Flushes, FlushedMsgs and BarrierNS are
// always 0, Parallel is always false and Domains holds the one engine's
// load: the fields stay only to keep the JSON shape that readers of a
// stats reply still parse.
type SyncStats struct {
	Windows     uint64       `json:"windows"`
	Flushes     uint64       `json:"flushes"`
	FlushedMsgs uint64       `json:"flushed_msgs"`
	AdvanceNS   int64        `json:"advance_ns"`
	BarrierNS   int64        `json:"barrier_ns"`
	Parallel    bool         `json:"parallel"`
	Domains     []DomainLoad `json:"domains"`
}

// SyncStats reports the fabric's run accounting: windows run and the
// engine's busy time. The NS fields are host wall-clock — they never feed
// the simulation and are therefore kept out of Snapshot, whose byte stream
// is the determinism fingerprint.
func (f *Fabric) SyncStats() SyncStats {
	return SyncStats{
		Windows:   f.window,
		AdvanceNS: f.load.BusyNS,
		Domains:   []DomainLoad{f.load},
	}
}

// Close does nothing. It is kept so existing callers still compile: a
// fabric holds no goroutines or other resources beyond its memory.
func (f *Fabric) Close() {}
