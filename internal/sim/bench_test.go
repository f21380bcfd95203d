package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineScheduleFire measures raw event-core throughput: a fixed
// population of self-perpetuating timers, each firing and scheduling its
// successor, the pattern every transport timer and transmitter produces.
func BenchmarkEngineScheduleFire(b *testing.B) {
	const population = 1024
	e := NewEngine()
	var fire func()
	i := 0
	fire = func() {
		i++
		e.After(Time(i%97+1), fire)
	}
	for j := 0; j < population; j++ {
		e.After(Time(j%97+1), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for e.Processed < uint64(b.N) {
		e.Step()
	}
}

// BenchmarkTimerRearm measures the timer lane under its dominant pattern:
// n timers at distinct periods, each re-arming itself from its own
// callback — so every fire refills the lane's root hole with one
// sift-down. The counts are the most armed timers one engine holds in
// udp_fanin (8) and fwd_ccmix (34), across the whole golden sweep (147),
// and a population no workload comes near (1024).
func BenchmarkTimerRearm(b *testing.B) {
	for _, n := range []int{8, 34, 147, 1024} {
		b.Run(fmt.Sprintf("timers=%d", n), func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < n; i++ {
				period := Time(1000 + 7*i)
				var tm *Timer
				tm = e.NewTimer(func() { tm.ArmAfter(period) })
				tm.ArmAfter(period)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkEngineHold measures the engine under the delivery pattern: k
// streams, each with strictly increasing deadlines a serialization time
// apart, every handler re-arming its stream before it returns — so every
// fire refills the root hole and costs exactly one sift-down at depth k. Stream l's gap is the serialization time plus l ns:
// with one gap for all, the streams fire in a fixed rotation a branch
// predictor learns at small k, which no workload's interleaving is. The
// depths are the pending-event counts the bench workloads hold (udp_fanin
// 17, fwd_ccmix 48, fluid_scale 106) plus BenchmarkEngineScheduleFire's 1024.
func BenchmarkEngineHold(b *testing.B) {
	const serialization, offset = 832, 5000 // ns: one MTU at 10 Gbps, one hop
	for _, pending := range []int{17, 48, 106, 1024} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			e := NewEngine()
			streams := make([]any, pending) // pre-boxed: the handler must not allocate
			var fire func(any)
			fire = func(stream any) {
				l := stream.(uint32)
				e.AtDetached(e.Now()+serialization+Time(l), fire, stream)
			}
			for i := range streams {
				streams[i] = uint32(i + 1)
				e.AtDetached(offset+serialization, fire, streams[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
