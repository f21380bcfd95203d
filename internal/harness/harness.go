// Package harness orchestrates experiment runs: a uniform Experiment
// interface, a package-level registry the CLI dispatches from, a worker
// pool that executes independent runs in parallel, and machine-readable
// JSON results.
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

// Experiment is a registered, named experiment. Run must be safe to call
// concurrently with other experiments' Run (but not with itself): it must
// build all mutable state — engine, topology, flows — per call.
type Experiment interface {
	Name() string
	Run(Params) (*Result, error)
}

// Func adapts a function to the Experiment interface.
type Func struct {
	name string
	fn   func(Params) (*Result, error)
}

// NewFunc wraps fn as a named Experiment.
func NewFunc(name string, fn func(Params) (*Result, error)) Func {
	return Func{name: name, fn: fn}
}

// Name implements Experiment.
func (f Func) Name() string { return f.name }

// Run implements Experiment.
func (f Func) Run(p Params) (*Result, error) { return f.fn(p) }

// The package-level registry. Experiments register themselves (typically
// from init functions); the CLI lists and dispatches by name.
var registry = struct {
	mu    sync.RWMutex
	byKey map[string]Experiment
	order []string
}{byKey: make(map[string]Experiment)}

// Register adds an experiment to the registry. It panics on a duplicate
// name: registration is static, so a collision is a programming error.
func Register(e Experiment) {
	name := e.Name()
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byKey[name]; dup {
		panic(fmt.Sprintf("harness: experiment %q registered twice", name))
	}
	registry.byKey[name] = e
	registry.order = append(registry.order, name)
}

// Get returns the experiment registered under name.
func Get(name string) (Experiment, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	e, ok := registry.byKey[name]
	return e, ok
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
