package experiments

import (
	"fmt"
	"runtime"
	"sync"
)

// Job is one experiment execution: a driver plus the Config to run it
// under. The ID is carried through to the result slot for callers that
// label output.
type Job struct {
	ID  string
	Cfg Config
	Run func(Config) *Result
}

// RunJobs executes the jobs on up to workers goroutines and returns their
// results indexed exactly like jobs, so output order is deterministic no
// matter how the scheduler interleaves the work. workers <= 0 means
// GOMAXPROCS; workers == 1 runs everything inline on the caller's
// goroutine.
//
// Running experiments concurrently is safe because an experiment is a
// closed world: each driver builds its own sim.Engine, simnet.Network,
// packet buffer pool, and seeded RNG streams, and no package in the
// simulation stack keeps mutable package-level state. Engines never share
// events, so the runner needs no locks beyond the WaitGroup — and
// determinism is untouched, since each engine's virtual timeline is
// independent of wall-clock interleaving (the race-enabled test suite and
// CI's -race differential run back this up).
func RunJobs(jobs []Job, workers int) []*Result {
	results := make([]*Result, len(jobs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, j := range jobs {
			results[i] = RunJob(j)
		}
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = RunJob(jobs[i])
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

// RunJob runs one job on the caller's goroutine, shielded from a
// panicking driver: the panic becomes the job's Result.Err (with the
// panic site for debugging) instead of killing the process and every
// sibling job with it.
func RunJob(j Job) (r *Result) {
	defer func() {
		if rec := recover(); rec != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			r = &Result{
				ID:    j.ID,
				Title: "driver panicked",
				Err:   fmt.Sprintf("%v\n%s", rec, buf),
			}
		}
	}()
	return j.Run(j.Cfg)
}
