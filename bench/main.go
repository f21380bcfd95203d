// Command bench is the repository's benchmark: four long workloads driven
// through the layers' public APIs, six end-to-end metrics measured with
// tracing off, and a traced run that prices every layer from outside. See
// README.md in this directory.
//
//	bench run -workload fwd_ccmix -seed 1 [-seconds 24] [-trace 1] [-json set.jsonl]
//	bench check [-workload w] [-seed n]
//	bench compare A.jsonl B.jsonl
//	bench list [-json]
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "run":
		fs := flag.NewFlagSet("run", flag.ExitOnError)
		var o runOptions
		fs.StringVar(&o.workload, "workload", "", "workload to run (see `bench list`)")
		fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
		fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long to keep starting timed iterations")
		fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		fs.StringVar(&o.jsonPath, "json", "", "append the result record to this set file (for `bench compare`)")
		fs.StringVar(&o.outDir, "outdir", "bench/out", "directory the traced run writes its spans to")
		fs.Parse(args)
		os.Exit(run(o, os.Stdout))
	case "check":
		fs := flag.NewFlagSet("check", flag.ExitOnError)
		name := fs.String("workload", "", "workload to check (default: all)")
		seed := fs.Uint64("seed", 1, "workload seed")
		fs.Parse(args)
		os.Exit(check(*name, *seed, os.Stdout))
	case "compare":
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		os.Exit(compare(args[0], args[1], os.Stdout))
	case "list":
		fs := flag.NewFlagSet("list", flag.ExitOnError)
		asJSON := fs.Bool("json", false, "print BENCHMARK.json instead of the table")
		fs.Parse(args)
		if !*asJSON {
			list(os.Stdout)
			break
		}
		b, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		os.Stdout.Write(b)
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown command %q (run, check, compare, list)\n", cmd)
		os.Exit(2)
	}
}
