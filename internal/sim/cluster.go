package sim

import "fmt"

// Cluster is one engine behind the names bench/ and topo.NewFatTreeIn still
// compile against. It is a shim until ROADMAP item 5 deletes it: the
// service drives a plain Engine and keeps its own run accounting
// (DESIGN.md §3b).
type Cluster struct {
	eng *Engine
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

// RunUntil runs the engine to deadline (see Engine.RunUntil). A deadline
// before the clock panics.
func (c *Cluster) RunUntil(deadline Time) {
	if deadline < c.eng.Now() {
		panic(fmt.Sprintf("sim: cluster run until %v which is before now %v", deadline, c.eng.Now()))
	}
	c.eng.RunUntil(deadline)
}

// Close does nothing. It is kept so existing callers still compile: a
// cluster holds no goroutines or other resources beyond its memory.
func (c *Cluster) Close() {}
