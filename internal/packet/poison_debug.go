//go:build aqdebug

package packet

import (
	"fmt"
	"sync"

	"aqueue/internal/sim"
)

// Poison values written into a released packet. Any component that reads a
// packet after releasing it sees these instead of plausible data, so the
// bug surfaces as an absurd size/sequence rather than a silent corruption.
const (
	PoisonSize = -0x5EAD
	PoisonSeq  = -0x5EADBEEF
)

// released tracks packets currently sitting in a free list, to catch
// double releases. A sync.Map because harness workers release packets on
// several goroutines, each into its own engine's pool.
var released sync.Map

func debugAcquire(p *Packet) {
	released.Delete(p)
}

func debugRelease(p *Packet) {
	if _, dup := released.LoadOrStore(p, struct{}{}); dup {
		panic(fmt.Sprintf("packet: double release of %p", p))
	}
	*p = Packet{
		Src: -1, Dst: -1,
		Flow:   ^FlowID(0),
		Kind:   Kind(0xFF),
		Size:   PoisonSize,
		Seq:    PoisonSeq,
		Ack:    PoisonSeq,
		SentAt: sim.Time(PoisonSeq),
	}
}

// Poisoned reports whether p carries the release-time poison pattern, i.e.
// it was released and not reacquired. Test helper.
func Poisoned(p *Packet) bool {
	return p.Size == PoisonSize && p.Seq == PoisonSeq
}
