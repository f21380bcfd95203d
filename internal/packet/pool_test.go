package packet

import (
	"testing"

	"aqueue/internal/sim"
)

func TestGetReturnsZeroedPacket(t *testing.T) {
	pl := PoolFor(sim.NewEngine())
	p := pl.NewData(1, 2, 3, 4096, 1000)
	p.CE = true
	p.VirtualDelay = 123
	pl.Release(p)
	q := pl.Get()
	if q != p {
		t.Fatal("free list did not hand back the released packet")
	}
	if *q != (Packet{}) {
		t.Fatalf("pooled packet not zeroed: %+v", *q)
	}
	pl.Release(q)
}

func TestReleaseNilIsNoop(t *testing.T) {
	PoolFor(sim.NewEngine()).Release(nil)
}
