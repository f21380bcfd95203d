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

func TestPoolStatsCountsGetsAndReleases(t *testing.T) {
	pl := PoolFor(sim.NewEngine())
	a, b := pl.NewData(1, 2, 3, 0, 1000), pl.NewAck(2, 1, 3, 1000)
	pl.Release(a)
	pl.Release(nil)
	pl.Release(pl.Get()) // reuses a
	if st := pl.Stats(); st != (PoolStats{Gets: 3, Releases: 2}) {
		t.Fatalf("Stats = %+v, want 3 gets and 2 releases (b still out)", st)
	}
	pl.Release(b)
	if st := pl.Stats(); st.Gets != st.Releases {
		t.Fatalf("Stats = %+v after every packet came back", st)
	}
}
