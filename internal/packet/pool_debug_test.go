//go:build aqdebug

package packet

import (
	"testing"

	"aqueue/internal/sim"
)

// TestReleasePoisons asserts the debug mode's core property: a released
// packet is unreadable — its fields carry the poison pattern until the
// pool hands it out again (zeroed).
func TestReleasePoisons(t *testing.T) {
	pl := PoolFor(sim.NewEngine())
	p := pl.NewData(1, 2, 3, 4096, 1000)
	pl.Release(p)
	if !Poisoned(p) {
		t.Fatalf("released packet not poisoned: %+v", *p)
	}
	if p.Size > 0 {
		t.Fatal("released packet still has a plausible size")
	}
}

// TestDoubleReleasePanics asserts the second Release of the same packet is
// caught rather than silently corrupting the pool.
func TestDoubleReleasePanics(t *testing.T) {
	pl := PoolFor(sim.NewEngine())
	p := pl.NewAck(1, 2, 3, 100)
	pl.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	pl.Release(p)
}
