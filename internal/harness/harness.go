// Package harness orchestrates experiment runs: one experiment shape (Run,
// a function of Params), a package-level registry the CLI dispatches from,
// a worker pool that executes independent runs in parallel, and
// machine-readable JSON results.
//
// Every run owns its own sim.Engine, topology, and random streams (drawn
// through sim.Engine.SeqDomain handles with NextIn), so a run's outcome is
// a pure function of (experiment, Params). That is what lets the pool
// saturate GOMAXPROCS while keeping each result byte-identical to a
// sequential run with the same parameters.
package harness

import (
	"fmt"
	"sync"

	"aqueue/internal/sim"
)

// Params carries the knobs common to every experiment. Experiments read
// what they need and ignore the rest; zero values select the experiment's
// own defaults.
type Params struct {
	// Horizon bounds the simulated time of open-loop experiments.
	Horizon sim.Time `json:"horizon_ns"`
	// Flows sizes closed-loop workloads (flows per entity).
	Flows int `json:"flows"`
	// Seed selects the workload random streams.
	Seed uint64 `json:"seed"`
	// Quick requests a reduced workload for a fast look.
	Quick bool `json:"quick,omitempty"`
	// Domains partitions the scenario's topology into this many
	// conservative time-synced simulation domains (see sim.Cluster); 0 and
	// 1 both mean a single engine. Results are byte-identical for any
	// value — the knob trades nothing but execution strategy — which is
	// why Fingerprint excludes it.
	Domains int `json:"domains,omitempty"`
	// Parallel advances a partitioned run's domains on the cluster's
	// persistent worker goroutines instead of cooperatively (see
	// sim.Cluster.SetParallel). Like Domains it trades only execution
	// strategy — results stay byte-identical, which the parallel parity
	// gate enforces under the race detector — so Fingerprint excludes it
	// too.
	Parallel bool `json:"parallel,omitempty"`
}

// Cluster builds the simulation cluster a run places its topology on:
// Domains engines synchronized by one conservative window (see
// sim.Cluster), advanced on workers when Parallel is set. Values of
// Domains below 1 mean a single engine. Every experiment builds its
// topology through the cluster builders, so the same scenario produces
// byte-identical results for any domain count and either strategy.
func (p Params) Cluster() *sim.Cluster {
	c := sim.NewCluster(max(p.Domains, 1))
	c.SetParallel(p.Parallel)
	return c
}

// Run is a registered experiment: it builds all mutable state — engine,
// topology, flows — per call, so it is safe to call concurrently with any
// other Run, itself included. A run that cannot complete panics; the pool
// recovers the panic into the Result's Error.
type Run func(Params) *Result

// The package-level registry. Experiments register themselves (typically
// from init functions); the CLI lists and dispatches by name.
var registry = struct {
	mu    sync.RWMutex
	byKey map[string]entry
	order []string
}{byKey: make(map[string]entry)}

type entry struct {
	desc string
	run  Run
}

// Register adds an experiment and its one-line description to the
// registry. It panics on a duplicate name: registration is static, so a
// collision is a programming error.
func Register(name, desc string, run Run) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byKey[name]; dup {
		panic(fmt.Sprintf("harness: experiment %q registered twice", name))
	}
	registry.byKey[name] = entry{desc: desc, run: run}
	registry.order = append(registry.order, name)
}

// Get returns the experiment registered under name.
func Get(name string) (Run, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	e, ok := registry.byKey[name]
	return e.run, ok
}

// Description returns the one-line summary name was registered with, or
// "" for an unknown name.
func Description(name string) string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return registry.byKey[name].desc
}

// Names returns the registered names in registration order (the canonical
// presentation order of the paper's figures and tables).
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]string, len(registry.order))
	copy(out, registry.order)
	return out
}
