package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Job pairs an experiment with the parameters of one run.
type Job struct {
	Name   string
	Run    Run
	Params Params
}

// Jobs builds the cross product names × seeds against the registry: one
// job per (experiment, seed), in name-major order. Unknown names are an
// error.
func Jobs(names []string, seeds []uint64, base Params) ([]Job, error) {
	if len(seeds) == 0 {
		seeds = []uint64{base.Seed}
	}
	jobs := make([]Job, 0, len(names)*len(seeds))
	for _, name := range names {
		run, ok := Get(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", name, Names())
		}
		for _, seed := range seeds {
			p := base
			p.Seed = seed
			jobs = append(jobs, Job{Name: name, Run: run, Params: p})
		}
	}
	return jobs, nil
}

// Pool runs jobs on a bounded set of workers.
type Pool struct {
	// Workers is the number of concurrent runs; values < 1 select
	// GOMAXPROCS.
	Workers int
}

// Run executes the jobs and returns one Result per job, in job order.
// A run that panics or returns nil yields a Result with Error set; the
// rest of the batch is unaffected.
func (pl *Pool) Run(jobs []Job) []*Result {
	workers := pl.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]*Result, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runOne(jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runOne executes one job with wall-clock accounting and panic recovery.
func runOne(j Job) (res *Result) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			res = &Result{Error: fmt.Sprintf("panic: %v\n%s", p, debug.Stack())}
		}
		if res == nil {
			res = &Result{Error: "experiment returned nil result"}
		}
		res.Name = j.Name
		res.Params = j.Params
		res.WallNS = time.Since(start).Nanoseconds()
	}()
	return j.Run(j.Params)
}
