package packet

import (
	"sync"
	"testing"
)

func TestGetReturnsZeroedPacket(t *testing.T) {
	p := NewData(1, 2, 3, 4096, 1000)
	p.CE = true
	p.VirtualDelay = 123
	Release(p)
	q := Get()
	if *q != (Packet{}) {
		t.Fatalf("pooled packet not zeroed: %+v", *q)
	}
	Release(q)
}

func TestReleaseNilIsNoop(t *testing.T) {
	Release(nil)
}

// TestPoolConcurrentChurn hammers the pool from many goroutines under
// -race: the parallel experiment harness shares it across engines.
func TestPoolConcurrentChurn(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				p := NewData(HostID(g), 1, FlowID(i), int64(i), 1000)
				if p.Seq != int64(i) || p.Payload != 1000 {
					panic("packet fields corrupted")
				}
				a := NewAck(1, HostID(g), FlowID(i), int64(i))
				Release(p)
				if a.Ack != int64(i) {
					panic("ack fields corrupted")
				}
				Release(a)
			}
		}(g)
	}
	wg.Wait()
}
