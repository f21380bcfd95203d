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
