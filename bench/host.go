package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// The calibration kernel is a fixed piece of work the benchmark owns: an
// xorshift-driven read-modify-write walk over a 2 MB array, about 10 ms on
// the recording host. It runs before and after every timed iteration and
// its timings are reported (host.cal_ms_p50), never used to normalise:
// they tell a reader whether the host was quiet, nothing else.
const (
	calWords = 2 << 20 / 8 // 2 MB of uint64
	calSteps = 3 << 20
)

// calArray is a static array, not a heap allocation, so the kernel's
// working set never appears in live_heap_mb.
var calArray [calWords]uint64

// calSink keeps the kernel's result live so the compiler cannot drop it.
var calSink uint64

// calibrateMS runs the kernel once and returns how long it took, in ms.
func calibrateMS() float64 {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	a := &calArray
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[x%calWords] += x
	}
	calSink += x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status, in MB (1e6 bytes).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		var kb float64
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f kB", &kb); err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		return kb * 1024 / 1e6, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// resetPeakRSS returns every freed page to the OS and resets the kernel's
// high-water mark to what is resident now, so the next peakRSSMB reads the
// peak of what runs in between. It fails where /proc/self/clear_refs is
// not writable.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// liveHeapMB collects garbage and returns what survives, in MB. Two
// collections, because sync.Pool contents (the packet pool's spill tier)
// survive the first one in the victim cache.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
