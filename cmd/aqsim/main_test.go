package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"aqueue/internal/harness"
)

func init() {
	harness.Register("test-always-fails", "a run that always fails", func(harness.Params) *harness.Result {
		panic("failing on purpose")
	})
}

// TestFailingRunKeepsItsProfile is the exit-path contract: a run that ends
// in status 2 still stops and flushes the CPU profile it started. pprof
// writes the whole profile at stop, so a skipped stop leaves an empty file,
// which is not a gzip stream.
func TestFailingRunKeepsItsProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	if got := run([]string{"-experiment", "test-always-fails", "-cpuprofile", prof}); got != 2 {
		t.Fatalf("failing experiment: status %d, want 2", got)
	}
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile of the failing run is not a gzip stream: %v", err)
	}
	if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
		t.Fatalf("profile of the failing run gunzips to %d bytes, err %v", n, err)
	}
}

func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"list", []string{"-list"}, 0},
		{"unknown format", []string{"-experiment", "fig3", "-format", "yaml"}, 2},
		{"unknown experiment", []string{"-experiment", "no-such-figure"}, 2},
		{"bad seeds", []string{"-experiment", "fig3", "-seeds", "1,x"}, 2},
		{"retired -bench flag", []string{"-bench", "-quick"}, 2},
	} {
		if got := run(c.args); got != c.want {
			t.Errorf("%s: aqsim %v = status %d, want %d", c.name, c.args, got, c.want)
		}
	}
}
