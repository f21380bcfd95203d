// Command aqsim runs the paper's experiments and prints the tables and
// series of §5 (plus the motivating Figure 1 and conceptual Figure 3).
// Experiments are dispatched from the harness registry, run on a worker
// pool (each run owns its engine, so parallel batches are byte-identical
// to sequential ones), and optionally serialized to JSON.
//
// Usage:
//
//	aqsim -list                               # show registered experiments
//	aqsim -experiment all                     # everything (slow)
//	aqsim -experiment table2                  # one experiment
//	aqsim -experiment fig6,fig7 -quick        # reduced workload, two experiments
//	aqsim -experiment all -parallel 8         # saturate 8 workers
//	aqsim -experiment all -json out.json      # machine-readable results
//	aqsim -experiment fig6 -seeds 1,2,3       # multi-seed sweep
//	aqsim -experiment fig6 -cpuprofile cpu.pprof  # profile a run
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"aqueue/internal/experiments"
	"aqueue/internal/harness"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command with an exit status in place of os.Exit, so the
// deferred profile flushes happen on every path — a failing run is the one
// most worth profiling.
func run(args []string) int {
	fs := flag.NewFlagSet("aqsim", flag.ContinueOnError)
	exp := fs.String("experiment", "all", "experiment name, comma list, or all")
	quick := fs.Bool("quick", false, "use reduced horizons/workloads")
	format := fs.String("format", "text", "output format: text|csv|none")
	seed := fs.Uint64("seed", 1, "workload seed")
	seeds := fs.String("seeds", "", "comma-separated seeds for a multi-seed sweep (overrides -seed)")
	parallel := fs.Int("parallel", 1, "concurrent runs (0 = GOMAXPROCS)")
	jsonOut := fs.String("json", "", "write a JSON results report to this path")
	list := fs.Bool("list", false, "list registered experiments and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := fs.String("memprofile", "", "write a heap profile to this path on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return failf("creating %s: %v", *cpuprofile, err)
		}
		defer closeProfile(f)
		if err := pprof.StartCPUProfile(f); err != nil {
			return failf("starting CPU profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeMemProfile(*memprofile)
	}

	switch *format {
	case "text", "csv", "none":
	default:
		return failf("bad -format %q: want text, csv, or none", *format)
	}

	if *list {
		for _, name := range harness.Names() {
			fmt.Printf("%-10s %s\n", name, harness.Description(name))
		}
		return 0
	}

	names := harness.Names()
	if *exp != "all" {
		names = splitList(*exp)
	}

	base := experiments.DefaultParams(*quick)
	base.Seed = *seed
	seedList, err := parseSeeds(*seeds)
	if err != nil {
		return failf("bad -seeds: %v", err)
	}

	jobs, err := harness.Jobs(names, seedList, base)
	if err != nil {
		return failf("%v (use -list to see the registry)", err)
	}

	pool := &harness.Pool{Workers: *parallel}
	start := time.Now()
	results := pool.Run(jobs)
	elapsed := time.Since(start)

	failed := 0
	for _, r := range results {
		printResult(r, *format)
		if r.Error != "" {
			failed++
		}
	}
	if len(results) > 1 {
		fmt.Printf("[%d runs in %v, %d workers]\n", len(results), elapsed.Round(time.Millisecond), effectiveWorkers(*parallel, len(jobs)))
	}
	if *jsonOut != "" {
		report := harness.NewReport(effectiveWorkers(*parallel, len(jobs)), results)
		if err := report.WriteJSONFile(*jsonOut); err != nil {
			return failf("writing %s: %v", *jsonOut, err)
		}
		fmt.Printf("[results written to %s]\n", *jsonOut)
	}
	if failed > 0 {
		return failf("%d of %d runs failed", failed, len(results))
	}
	return 0
}

func printResult(r *harness.Result, format string) {
	if r.Error != "" {
		fmt.Fprintf(os.Stderr, "[%s seed=%d FAILED: %s]\n\n", r.Name, r.Params.Seed, firstLine(r.Error))
		return
	}
	switch format {
	case "csv":
		for _, t := range r.Tables {
			fmt.Print(t.CSV())
			fmt.Println()
		}
	case "none":
	default:
		for _, t := range r.Tables {
			fmt.Println(t.Render())
		}
	}
	fmt.Printf("[%s seed=%d done in %v]\n\n", r.Name, r.Params.Seed,
		time.Duration(r.WallNS).Round(time.Millisecond))
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseSeeds(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	var out []uint64
	for _, f := range splitList(s) {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func effectiveWorkers(parallel, jobs int) int {
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > jobs {
		parallel = jobs
	}
	return parallel
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// writeMemProfile dumps the live heap after a final GC, the same shape
// `go test -memprofile` produces.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "creating %s: %v\n", path, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "writing heap profile: %v\n", err)
	}
}

// closeProfile closes a finished CPU profile; a failed close means a short
// file, which is worth a line on stderr.
func closeProfile(f *os.File) {
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "closing %s: %v\n", f.Name(), err)
	}
}

// failf reports a failure on stderr and returns the failing exit status.
func failf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	return 2
}
