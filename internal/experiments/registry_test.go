package experiments

import (
	"testing"

	"aqueue/internal/harness"
	"aqueue/internal/sim"
)

// expectedExperiments is every registered experiment, in the paper's
// presentation order followed by the extensions.
var expectedExperiments = []string{
	"fig1", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "table2", "table3", "table4", "extfabric", "extqueues",
	"fluidbg", "churn",
}

func TestRegistryHasEveryExperiment(t *testing.T) {
	pos := map[string]int{}
	for i, name := range harness.Names() {
		pos[name] = i
	}
	prev := -1
	for _, name := range expectedExperiments {
		if _, ok := harness.Get(name); !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		if harness.Description(name) == "" {
			t.Errorf("experiment %q has no description", name)
		}
		at, listed := pos[name]
		if !listed {
			t.Fatalf("experiment %q missing from Names()", name)
		}
		if at <= prev {
			t.Errorf("experiment %q out of presentation order", name)
		}
		prev = at
	}
}

func TestRegistryRejectsUnknownNames(t *testing.T) {
	if _, ok := harness.Get("fig99"); ok {
		t.Fatal("unknown experiment resolved")
	}
	if _, err := harness.Jobs([]string{"fig1", "fig99"}, nil, harness.Params{}); err == nil {
		t.Fatal("Jobs accepted an unknown name")
	}
}

func TestDefaultParams(t *testing.T) {
	full := DefaultParams(false)
	if full.Horizon != 400*sim.Millisecond || full.Flows != 150 || full.Seed != 1 {
		t.Fatalf("full params = %+v", full)
	}
	quick := DefaultParams(true)
	if quick.Horizon != 120*sim.Millisecond || quick.Flows != 40 || !quick.Quick {
		t.Fatalf("quick params = %+v", quick)
	}
}

// TestHarnessParallelMatchesSequential is the determinism contract of the
// parallel harness: running a batch of experiments concurrently (run with
// -race in CI) must produce results byte-identical to running the same
// batch sequentially with the same seeds.
func TestHarnessParallelMatchesSequential(t *testing.T) {
	names := []string{"fig3", "fig11", "fig12", "fig1", "fig6"}
	base := harness.Params{Horizon: 10 * sim.Millisecond, Flows: 8, Seed: 7}
	jobs, err := harness.Jobs(names, []uint64{7}, base)
	if err != nil {
		t.Fatal(err)
	}
	seq := (&harness.Pool{Workers: 1}).Run(jobs)
	par := (&harness.Pool{Workers: 4}).Run(jobs)
	for i := range jobs {
		if seq[i].Error != "" || par[i].Error != "" {
			t.Fatalf("%s failed: seq=%q par=%q", seq[i].Name, seq[i].Error, par[i].Error)
		}
		if len(seq[i].Tables) == 0 {
			t.Fatalf("%s produced no tables", seq[i].Name)
		}
		if harness.Fingerprint(seq[i]) != harness.Fingerprint(par[i]) {
			t.Errorf("%s: parallel result differs from sequential:\nseq: %s\npar: %s",
				seq[i].Name, seq[i].Rendered(), par[i].Rendered())
		}
	}
}

// TestRunsAreReproducible pins the engine-scoped determinism that the
// harness relies on: the same (experiment, seed) fingerprints identically
// on repeated runs within one process.
func TestRunsAreReproducible(t *testing.T) {
	run, ok := harness.Get("fig6")
	if !ok {
		t.Fatal("fig6 not registered")
	}
	p := harness.Params{Horizon: 10 * sim.Millisecond, Flows: 6, Seed: 3}
	a, b := run(p), run(p)
	if harness.Fingerprint(a) != harness.Fingerprint(b) {
		t.Fatalf("repeated runs differ:\n%s\nvs\n%s", a.Rendered(), b.Rendered())
	}
}
