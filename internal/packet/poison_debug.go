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
// double releases. Harness workers release on several goroutines, so a
// mutex guards it; a map reuses its buckets, so the debug build allocates
// nothing in steady state.
var (
	releasedMu sync.Mutex
	released   = map[*Packet]struct{}{}
)

func debugAcquire(p *Packet) {
	releasedMu.Lock()
	delete(released, p)
	releasedMu.Unlock()
}

func debugRelease(p *Packet) {
	releasedMu.Lock()
	_, dup := released[p]
	released[p] = struct{}{}
	releasedMu.Unlock()
	if dup {
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
