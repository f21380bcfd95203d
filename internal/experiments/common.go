// Package experiments reproduces every table and figure of the paper's
// evaluation (§5) plus the motivating Figure 1 and the conceptual Figure 3.
// Each experiment builds its topology, wires the entities under one of the
// four approaches (PQ, AQ, PRL, DRL), runs the simulation, and returns the
// same rows or series the paper reports. Every registered experiment is a
// harness.Run: it takes the harness.Params the CLI built and builds its
// topology on an engine of its own (sim.NewEngine). cmd/aqsim prints them;
// bench_test.go runs every one under `go test -bench`.
package experiments

import (
	"fmt"

	"aqueue/internal/cc"
	"aqueue/internal/control"
	"aqueue/internal/core"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/stats"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
)

// Approach selects the network-sharing mechanism under test (§5.1).
type Approach int

// The four approaches of the paper's evaluation.
const (
	PQ Approach = iota
	AQ
	PRL
	DRL
)

// String implements fmt.Stringer.
func (a Approach) String() string {
	switch a {
	case PQ:
		return "PQ"
	case AQ:
		return "AQ"
	case PRL:
		return "PRL"
	case DRL:
		return "DRL"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// Approaches is the canonical comparison order.
var Approaches = []Approach{PQ, AQ, PRL, DRL}

// ccTypeFor maps an algorithm name to the AQ feedback type it needs.
func ccTypeFor(name string) core.CCType {
	switch name {
	case "dctcp":
		return core.ECNType
	case "swift", "timely":
		return core.DelayType
	default:
		return core.DropType
	}
}

// ccFactory returns the cc.Factory for a name, panicking on unknown names
// (experiment definitions are static, so this is a programming error).
func ccFactory(name string) cc.Factory {
	f := cc.ByName(name)
	if f == nil {
		panic("experiments: unknown CC " + name)
	}
	return f
}

// mustGrant grants req on tbl and returns the AQ ID, panicking on refusal
// (experiment definitions are static, so this is a programming error).
func mustGrant(ctrl *control.Controller, req control.Request, tbl *core.Table) packet.AQID {
	g, err := ctrl.Grant(req, tbl)
	if err != nil {
		panic(err)
	}
	return g.ID
}

// ecnCapable reports whether flows of this CC should set ECT.
func ecnCapable(name string) bool { return name == "dctcp" }

// rxClassifier measures per-entity receive throughput on a set of hosts.
// The classify function maps a data packet to an entity index (or -1 to
// ignore).
type rxClassifier struct {
	meters []*stats.Meter
}

// newRxClassifier installs hooks on the hosts and returns meters indexed by
// entity, in 1 ms buckets.
func newRxClassifier(hosts []*topo.Host, n int, classify func(*packet.Packet) int) *rxClassifier {
	rc := &rxClassifier{meters: make([]*stats.Meter, n)}
	for i := range rc.meters {
		rc.meters[i] = stats.NewMeter(sim.Millisecond)
	}
	for _, h := range hosts {
		h.RxHook = func(p *packet.Packet) {
			if p.Kind != packet.Data {
				return
			}
			if idx := classify(p); idx >= 0 && idx < n {
				rc.meters[idx].Add(h.Engine().Now(), p.Size)
			}
		}
	}
	return rc
}

// Gbps returns entity i's average rate over [from, to].
func (rc *rxClassifier) Gbps(i int, from, to sim.Time) float64 {
	return rc.meters[i].Gbps(from, to)
}

// longFlows starts n long-lived flows for an entity, spreading them across
// the given source and destination host lists round-robin.
func longFlows(srcs, dsts []*topo.Host, n int, alg cc.Factory, opt transport.Options) []*transport.Sender {
	out := make([]*transport.Sender, 0, n)
	for i := 0; i < n; i++ {
		src := srcs[i%len(srcs)]
		dst := dsts[i%len(dsts)]
		s := transport.NewSender(src, dst, 0, alg(), opt)
		// Stagger starts by a few microseconds so slow-start bursts do not
		// collide pathologically.
		s.Start(sim.Time(i) * 20 * sim.Microsecond)
		out = append(out, s)
	}
	return out
}

// sumAcked totals the acked bytes across senders.
func sumAcked(ss []*transport.Sender) uint64 {
	var sum uint64
	for _, s := range ss {
		sum += uint64(s.AckedBytes())
	}
	return sum
}

// aqLimitFor picks the AQ limit used when granting against a link spec:
// the paper's §6 default of "the physical queue limit".
func aqLimitFor(spec topo.LinkSpec) int { return spec.QueueLimit }
