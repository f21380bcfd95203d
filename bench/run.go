package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Protocol constants. Iteration size is fixed in each workload's file and
// never adapted at run time, so two commits always do identical work; the
// only thing the clock decides is how many identical iterations fit.
const (
	warmups        = 3  // discarded iterations before timing starts
	rssProbes      = 5  // untimed iterations peak_rss_mb is the median of
	minIterations  = 40 // timed iterations a run reaches, whatever -seconds says
	defaultSeconds = 24
)

var workloads = []workload{
	{
		name:    "fwd_ccmix",
		why:     "closed-loop MTU forwarding with five CC families: transport, cc, timers, topo and AQ pass/mark/delay all busy; fluid and service idle",
		unit:    "pkt-hops",
		iterate: fwdIterate,
	},
	{
		name:    "udp_fanin",
		why:     "open-loop 64 B datagrams into AQ limit drops, table misses and FIFO drops: same forwarding layer, smallest packets, TCP transport and cc bypassed",
		unit:    "pkt-hops",
		iterate: udpIterate,
	},
	{
		name:    "fluid_scale",
		why:     "one million fluid entities on a k=8 fat tree: fluid and AQ.OnFluidEpoch do the work, the packet path almost none; set-up and heap are per-entity state",
		unit:    "entity-epochs",
		iterate: fluidIterate,
	},
	{
		name:    "daemon_session",
		why:     "one wire client scripting a paused 2-domain fabric over loopback TCP: service, control wire, cluster mailboxes, flow churn and snapshot marshalling",
		unit:    "windows",
		iterate: daemonIterate,
		replay:  daemonReplay,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result with its coordinates, one line of a `-json` set file.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// loopStats is what a run of iterations accumulates.
type loopStats struct {
	setup, run         [][]float64 // per untraced iteration, the parts' seconds
	tracedRun          [][]float64 // per traced iteration
	calMS              []float64
	last               iterOut
	digests            map[uint64]bool
	attempted, failed  int
	rtts               map[string][]float64 // every timed iteration's round trips, by verb
	violations         []string
	mallocs, work      uint64
	gcCycles, forcedGC uint32
	gcPauseNS          uint64
}

func (ls *loopStats) violate(format string, args ...any) {
	ls.violations = append(ls.violations, fmt.Sprintf(format, args...))
}

// failOp records a failed run-level operation: one more in ops_failed,
// and why.
func (ls *loopStats) failOp(format string, args ...any) {
	ls.failed++
	ls.violate(format, args...)
}

// iterations is how many timed iterations ran, traced ones included.
func (ls *loopStats) iterations() int { return len(ls.run) + len(ls.tracedRun) }

// iterateFor runs iterations until the time budget is spent and at least
// minIters are done. recFor returns the recorder for iteration i (nil for
// an untraced one). Before each iteration the previous one's state, by
// then unreachable, is collected, so every build starts from the same
// heap and peak RSS depends less on when the collector happened to run.
func iterateFor(wl *workload, seed uint64, budget time.Duration, minIters int, recFor func(i int) *recorder) *loopStats {
	ls := &loopStats{digests: make(map[uint64]bool), rtts: make(map[string][]float64)}
	for i := 0; i < warmups; i++ {
		ls.absorb(wl.iterate(seed, nil, nil), false)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minIters && time.Since(start) >= budget {
			break
		}
		runtime.GC()
		ls.forcedGC++
		rec := recFor(i)
		if rec != nil {
			rec.iter = i
		}
		ls.calMS = append(ls.calMS, calibrateMS())
		out := wl.iterate(seed, rec, nil)
		ls.calMS = append(ls.calMS, calibrateMS())
		if rec != nil {
			ls.tracedRun = append(ls.tracedRun, seconds(out.run))
		} else {
			ls.setup = append(ls.setup, seconds(out.setup))
			ls.run = append(ls.run, seconds(out.run))
		}
		ls.work += out.work
		ls.absorb(out, true)
	}
	runtime.ReadMemStats(&after)
	ls.mallocs = after.Mallocs - before.Mallocs
	ls.gcCycles = after.NumGC - before.NumGC
	ls.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs
	if len(ls.digests) != 1 {
		ls.violate("iterations of one run produced %d distinct digests", len(ls.digests))
	}
	return ls
}

// absorb folds one iteration's checks and samples into the run.
func (ls *loopStats) absorb(out iterOut, timed bool) {
	ls.digests[out.digest] = true
	if out.shareErr >= 10 {
		out.violations = append(out.violations, fmt.Sprintf("share_err_pct %.2f >= 10", out.shareErr))
	}
	if out.attempted == 0 {
		// A simulation workload: the iteration is the operation.
		out.attempted = 1
		if len(out.violations) > 0 {
			out.failed = 1
		}
	}
	ls.attempted += out.attempted
	ls.failed += out.failed
	for _, v := range out.violations {
		ls.violate("%s", v)
	}
	if timed {
		for verb, samples := range out.rtts {
			ls.rtts[verb] = append(ls.rtts[verb], samples...)
		}
		ls.last = out
	}
}

// crossChecks are the run-level invariants: a different seed must change
// the digest, and the wire-driven daemon session must fingerprint exactly
// like its in-process ScriptAt replay. Each counts as one more operation.
func (ls *loopStats) crossChecks(wl *workload, seed uint64, rec *recorder) {
	other := wl.iterate(seed+1, nil, nil)
	ls.attempted++
	if ls.digests[other.digest] {
		ls.failOp("seeds %d and %d produced the same digest", seed, seed+1)
	}
	if wl.replay == nil {
		return
	}
	ls.attempted++
	fp, err := wl.replay(seed, rec)
	if err != nil || fp != ls.last.fingerprint {
		ls.failOp("wire-driven fingerprint %q != in-process replay %q (%v)", ls.last.fingerprint, fp, err)
	}
}

// singleP runs the process on one P. Every workload is one logical thread
// of work — the simulations are one goroutine, and the daemon's client and
// service loop alternate, never overlap — so a second P adds no throughput,
// only cross-core wake-ups and a concurrent collector whose latency follows
// the neighbours: daemon_session's p5 iteration time read 237, 237, 242 ms on one
// P and 250, 342, 287 ms on two, back to back on the recording host.
func singleP() { runtime.GOMAXPROCS(1) }

// runOptions are the `run` subcommand's flags.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	jsonPath string
	outDir   string
}

// run executes one benchmark run and returns the process exit code.
func run(o runOptions, stdout io.Writer) int {
	wl := findWorkload(o.workload)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (try `bench list`)\n", o.workload)
		return 2
	}
	singleP()
	budget := time.Duration(o.seconds * float64(time.Second))
	var res result
	var ls *loopStats
	if o.trace == 0 {
		ls, res = runTimed(wl, o.seed, budget, stdout)
	} else {
		ls, res = runTraced(wl, o, budget, stdout)
	}
	for _, v := range ls.violations {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", v)
	}
	fmt.Fprintf(stdout, "ops_attempted %d  ops_failed %d\n", res.Attempted, res.Failed)
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			res.Metrics[name] = v
		}
	}
	if o.jsonPath != "" {
		if err := appendRecord(o.jsonPath, record{Workload: wl.name, Seed: o.seed, Trace: o.trace, result: res}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encoding result: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runTimed is the untraced run: the end-to-end metrics.
func runTimed(wl *workload, seed uint64, budget time.Duration, w io.Writer) (*loopStats, result) {
	ls := iterateFor(wl, seed, budget, minIterations, func(int) *recorder { return nil })
	// The process's high-water mark is a maximum over every iteration so
	// far, and how far the set-up burst outruns the collector varies: 149-200
	// MB between identical fluid_scale runs. So peak_rss_mb is the median
	// over rssProbes more, untimed, iterations of each one's own peak, from
	// a heap returned to the OS; the lifetime mark stands in only where the
	// kernel's mark cannot be reset.
	rss, err := peakRSSMB()
	if err != nil {
		ls.failOp("peak RSS: %v", err)
	}
	var peaks []float64
	for i := 0; i < rssProbes && err == nil; i++ {
		if err = resetPeakRSS(); err != nil {
			fmt.Fprintf(w, "note: peak_rss_mb is the process's lifetime high-water mark: %v\n", err)
			break
		}
		ls.absorb(wl.iterate(seed, nil, nil), false)
		var peak float64
		if peak, err = peakRSSMB(); err != nil {
			ls.failOp("peak RSS: %v", err)
		}
		peaks = append(peaks, peak)
	}
	if len(peaks) == rssProbes {
		rss = median(peaks)
	}
	// One more, untimed, iteration reads the live heap when the scenario is
	// built and again when it has run, each less the heap just before the
	// build (the harness's own samples).
	base := liveHeapMB()
	var builtHeap, heap float64
	ls.absorb(wl.iterate(seed, nil, &heapProbe{
		built: func() { builtHeap = liveHeapMB() - base },
		ran:   func() { heap = liveHeapMB() - base },
	}), false)
	ls.crossChecks(wl, seed, nil)

	runFloor := floorSum(ls.run)
	m := map[string]metricValue{
		"setup_s":            {floorSum(ls.setup), "s"},
		"work_per_s":         {float64(ls.last.work) / runFloor, "work/s"},
		"built_heap_mb":      {builtHeap, "MB"},
		"live_heap_mb":       {heap, "MB"},
		"peak_rss_mb":        {rss, "MB"},
		"share_fidelity_pct": {100 - ls.last.shareErr, "%"},
	}
	fmt.Fprintf(w, "workload %s  seed %d  %d timed iterations of %d %s (run floor %.1f ms, median %.1f ms, cal p50 %.2f ms)\n",
		wl.name, seed, ls.iterations(), ls.last.work, wl.unit, runFloor*1e3, median(totals(ls.run))*1e3, median(ls.calMS))
	printMetrics(w, endToEnd, m)
	return ls, result{Correct: len(ls.violations) == 0, Attempted: ls.attempted, Failed: ls.failed, Metrics: m}
}

// runTraced is the traced run: the per-layer metrics. A share of the time
// budget goes to iterations alternating untraced and traced (the
// difference of their floors is the tracing overhead), the rest to feeders.
func runTraced(wl *workload, o runOptions, budget time.Duration, w io.Writer) (*loopStats, result) {
	rec := newRecorder()
	ls := iterateFor(wl, o.seed, budget*2/5, 12, func(i int) *recorder {
		if i%2 == 1 {
			return rec
		}
		return nil
	})
	rec.iter = -1 // the in-process reference pass belongs to no iteration
	ls.crossChecks(wl, o.seed, rec)
	runtime.GC()
	t := traced{ls: ls, n: ls.last.counts, work: float64(ls.last.work)}
	t.c = runFeeders(o.seed, t.n.meanPending())
	runNS := floorSum(ls.run) * 1e9
	var b map[string]float64
	if len(ls.last.rtts) > 0 { // a wire client's counters stop at the wire
		b = daemonBudget(ls.last.rtts, t.c)
	} else {
		b = simBudget(t.n, t.c)
	}
	t.shares, t.unattributed = budgetShares(b, runNS)

	out := make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = metricValue{m.value(&t), m.Unit}
	}
	fmt.Fprintf(w, "workload %s  seed %d  traced: %d iterations of %d %s, run floor %.1f ms\n",
		wl.name, o.seed, ls.iterations(), ls.last.work, wl.unit, runNS/1e6)
	printMetrics(w, layerDefs(), out)
	fmt.Fprintf(w, "\nlayer budget for %s (feeder cost x op count, as a share of the run floor):\n", wl.name)
	for _, l := range budgetLayers {
		fmt.Fprintf(w, "  %-12s %10.3f ms  %6.2f %%\n", l, b[l]/1e6, t.shares[l])
	}
	fmt.Fprintf(w, "  %-12s %10.3f ms  %6.2f %%\n", "unattributed", runNS*t.unattributed/100/1e6, t.unattributed)
	// Spans of traced iterations are averaged per iteration; the in-process
	// reference pass (iteration -1) ran once and is printed as a total.
	var iterSpans, refSpans []span
	for _, s := range rec.spans {
		if s.Iter < 0 {
			refSpans = append(refSpans, s)
		} else {
			iterSpans = append(iterSpans, s)
		}
	}
	fmt.Fprintf(w, "span self time, traced iterations (ms per iteration):\n")
	printSelf(w, iterSpans, float64(len(ls.tracedRun)))
	if len(refSpans) > 0 {
		fmt.Fprintf(w, "span self time, in-process reference pass (ms, one pass):\n")
		printSelf(w, refSpans, 1)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err == nil {
		path := filepath.Join(o.outDir, "trace-"+wl.name+".json")
		if err := writeSpans(path, rec.spans); err != nil {
			ls.failOp("writing %s: %v", path, err)
		}
	} else {
		ls.failOp("creating %s: %v", o.outDir, err)
	}
	return ls, result{Correct: len(ls.violations) == 0, Attempted: ls.attempted, Failed: ls.failed, Metrics: out}
}

// printSelf prints self time per span name, in ms, divided by per.
func printSelf(w io.Writer, spans []span, per float64) {
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-24s %10.3f\n", name, float64(self[name])/1e6/per)
	}
}

func pct(part, whole float64) float64 { return 100 * ratio(part, whole) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// printMetrics prints the metrics named by defs, in that order.
func printMetrics(w io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.6g %-7s (%s is better)\n", d.Name, m[d.Name].Value, d.Unit, d.Better)
	}
}

// appendRecord appends one JSON line to a set file.
func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
