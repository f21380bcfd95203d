package sim

import "testing"

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
