// The quick-sweep determinism gate at simulator scope. The engine has one
// configuration and a run has one engine, so there is one path to check:
// the sweep must equal the fingerprints committed under testdata/golden
// (path == recorded truth).
package aqueue_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"aqueue/internal/experiments"
	"aqueue/internal/harness"
	"aqueue/internal/sim"
)

// update rewrites the golden file for the running GOARCH from the reference
// sweep. Legitimate only in a change that means to move results.
var update = flag.Bool("update", false, "rewrite testdata/golden/quick_<GOARCH>.json from the reference sweep")

// goldenPath is per architecture: FMA fusion on arm64/ppc64/s390x moves
// float results, so a fingerprint recorded on amd64 says nothing there.
func goldenPath() string {
	return filepath.Join("testdata", "golden", "quick_"+runtime.GOARCH+".json")
}

// runSweep executes the full quick sweep — every registered experiment at
// quick parameters with the horizon cut further: the gate needs identical
// runs, not converged ones — and returns scenario name → hex sha256 of its
// harness.Fingerprint. One worker: TestPooledParallelDeterministic holds
// a parallel pool to the sequential one.
//
// The 20 ms horizon is inside fluidbg's start-up transient: there its
// packet-background foreground goodputs read 2.25–2.66 Gbps against a
// 2.5 Gbps share, and its guarantee delta swung between 1.7 % and 14.6 %
// on a tie-rule change alone, while at the 120 ms quick horizon its
// foreground goodput deltas stay near 1 %. So that entry of the golden
// pins the transient, not the scenario's fidelity; moving its horizon is
// left to a change that means to move results.
func runSweep(t *testing.T) map[string]string {
	t.Helper()
	base := experiments.DefaultParams(true)
	base.Horizon = 20 * sim.Millisecond
	base.Flows = 4
	jobs, err := harness.Jobs(harness.Names(), nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 16 {
		t.Fatalf("registry holds %d quick-sweep scenarios, expected the full 16", len(jobs))
	}
	hashes := make(map[string]string, len(jobs))
	for _, r := range (&harness.Pool{Workers: 1}).Run(jobs) {
		if r.Error != "" {
			t.Fatalf("%s failed: %s", r.Name, r.Error)
		}
		sum := sha256.Sum256([]byte(harness.Fingerprint(r)))
		hashes[r.Name] = hex.EncodeToString(sum[:])
	}
	return hashes
}

// requireEqual reports every scenario of got whose fingerprint hash differs
// from want's.
func requireEqual(t *testing.T, got, want map[string]string, wantLabel string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s holds %d scenarios, the sweep ran %d", wantLabel, len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; g != w {
			t.Errorf("%s: fingerprint %.16s… differs from %s %.16s…", name, g, wantLabel, w)
		}
	}
}

// TestQuickSweepGolden runs the quick sweep once and holds it to the
// committed golden.
func TestQuickSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick sweep")
	}
	ref := runSweep(t)

	t.Run("golden", func(t *testing.T) {
		path := goldenPath()
		if *update {
			writeGolden(t, path, ref)
			return
		}
		raw, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			t.Skipf("no golden recorded for GOARCH=%s (%s)", runtime.GOARCH, path)
		}
		if err != nil {
			t.Fatal(err)
		}
		var golden map[string]string
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		requireEqual(t, ref, golden, path)
	})
}

func writeGolden(t *testing.T, path string, hashes map[string]string) {
	t.Helper()
	raw, err := json.MarshalIndent(hashes, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d scenarios)", path, len(hashes))
}
