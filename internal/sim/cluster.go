package sim

import (
	"fmt"
	"time"
)

// Cluster is one engine plus run accounting: RunUntil counts the calls
// that moved the clock and times the ones that fired events, and
// SyncStats reports both. The service runs its fabric through one; a
// topology builds on its engine like on any other (DESIGN.md §3b).
type Cluster struct {
	eng *Engine

	// Run accounting for SyncStats: RunUntil calls that moved the clock,
	// and the calls that fired events with their host wall time.
	windows uint64
	load    DomainLoad
}

// NewCluster returns a cluster around one fresh engine. n must be 1: the
// parameter remains only so existing callers compile, and any other value
// panics.
func NewCluster(n int) *Cluster {
	if n != 1 {
		panic(fmt.Sprintf("sim: a cluster has exactly one engine, asked for %d", n))
	}
	return &Cluster{eng: NewEngine()}
}

// Engine returns the cluster's engine.
func (c *Cluster) Engine() *Engine { return c.eng }

// Engines returns the cluster's engine as a one-element slice, for callers
// that range over it.
func (c *Cluster) Engines() []*Engine { return []*Engine{c.eng} }

// Now returns the cluster clock.
func (c *Cluster) Now() Time { return c.eng.Now() }

// RunUntil runs the engine to deadline (see Engine.RunUntil) and folds the
// call into the run accounting SyncStats reports.
func (c *Cluster) RunUntil(deadline Time) {
	if deadline < c.eng.Now() {
		panic(fmt.Sprintf("sim: cluster run until %v which is before now %v", deadline, c.eng.Now()))
	}
	if c.eng.Now() < deadline {
		c.windows++
	}
	if t, ok := c.eng.NextEventTime(); !ok || t > deadline {
		c.eng.RunUntil(deadline) // clock hop: nothing fires before the deadline
		return
	}
	start := time.Now()
	c.eng.RunUntil(deadline)
	c.load.Runs++
	c.load.BusyNS += time.Since(start).Nanoseconds()
}

// Close does nothing. It is kept so existing callers still compile: a
// cluster holds no goroutines or other resources beyond its memory.
func (c *Cluster) Close() {}

// DomainLoad is the engine's execution accounting: how many RunUntil calls
// fired events and how many host nanoseconds they ran. Calls that only
// hopped the clock forward are not counted.
type DomainLoad struct {
	Domain int    `json:"domain"`
	Runs   uint64 `json:"runs"`
	BusyNS int64  `json:"busy_ns"`
}

// SyncStats is the cluster's run accounting. Durations are host
// wall-clock — they never feed back into simulation results. Windows counts
// RunUntil calls that moved the clock; AdvanceNS is the wall time of the
// calls that fired events, the one DomainLoad's BusyNS.
// Flushes, FlushedMsgs and BarrierNS are always 0, Parallel is always
// false and Domains holds the one engine's load: the fields stay only to
// keep the JSON shape that readers of a stats reply still parse.
type SyncStats struct {
	Windows     uint64       `json:"windows"`
	Flushes     uint64       `json:"flushes"`
	FlushedMsgs uint64       `json:"flushed_msgs"`
	AdvanceNS   int64        `json:"advance_ns"`
	BarrierNS   int64        `json:"barrier_ns"`
	Parallel    bool         `json:"parallel"`
	Domains     []DomainLoad `json:"domains"`
}

// SyncStats returns a snapshot of the run accounting.
func (c *Cluster) SyncStats() SyncStats {
	return SyncStats{
		Windows:   c.windows,
		AdvanceNS: c.load.BusyNS,
		Domains:   []DomainLoad{c.load},
	}
}
