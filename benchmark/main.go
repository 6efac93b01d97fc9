// Command benchmark is the repository's one benchmark: four workloads, the
// end-to-end metrics BENCHMARK.json bounds, and a per-layer cost sheet.
//
//	go run ./benchmark                       every workload once, each in its own process
//	go run ./benchmark -trace 1              the traced pass: per-layer metrics and cost sheets
//	go run ./benchmark -runs 10 -out A.json  a result set to compare
//	go run ./benchmark -compare A.json B.json
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//
// See README.md in this directory for what each workload and metric means.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
)

// outDir is where result files and traces go: benchmark/out beside
// BENCHMARK.json, which .gitignore names.
var outDir string

func traceFile(workload string) string { return filepath.Join(outDir, workload+".trace.json") }

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all, one process each)")
		seed     = flag.Int64("seed", 1, "seed for topology jitter, storm draw, flow stagger and payload bytes")
		seconds  = flag.Int("seconds", 0, "size of the measured window (default: run_seconds from BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans, cost sheet")
		runs     = flag.Int("runs", 1, "with no -workload: repeat the whole pass this many times, seeds seed..seed+runs-1")
		out      = flag.String("out", "", "append one JSON result per run to this file (default benchmark/out/results.jsonl)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	testing.Init() // the micros run through testing.Benchmark, which reads the testing flags
	flag.Parse()
	// Two procs everywhere, so a figure means the same on a larger host.
	runtime.GOMAXPROCS(2)

	spec, dir, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1")
		return 2
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	outDir = filepath.Join(dir, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *out == "" {
		*out = filepath.Join(outDir, "results.jsonl")
	}

	if *workload != "" {
		if !spec.hasWorkload(*workload) {
			fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json has no workload %q\n", *workload)
			return 2
		}
		return runOne(spec, *workload, *seed, *seconds, *trace == 1, *out)
	}
	return runAll(spec, *seed, *seconds, *trace, *runs, *out)
}

// runOne runs one workload in this process and prints the contract's
// final line.
func runOne(spec *Spec, workload string, seed int64, seconds int, trace bool, out string) int {
	var r *Run
	var err error
	if workload == wlUDP {
		r, err = runUDP(seed, seconds, trace, spec, fullSize)
	} else {
		r, err = runSim(workload, seed, seconds, trace, spec, fullSize)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", workload, err)
		return 1
	}
	r.Host = fingerprint()
	pinCheck(r, spec)
	r.print(os.Stdout)
	if err := appendResult(out, r); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !r.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s: output checks failed\n", workload)
		return 1
	}
	fmt.Println(r.finalLine())
	return 0
}

// runAll runs every workload, each in a child process so that peak memory
// is per workload, then checks what only a whole pass can: the two mesh
// workloads must have simulated exactly the same thing.
func runAll(spec *Spec, seed int64, seconds, trace, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	status := 0
	for i := 0; i < runs; i++ {
		s := seed + int64(i)
		for _, w := range workloadOrder {
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w, s, err)
				status = 1
			}
		}
	}
	runsRead, err := readResults(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !meshDigestsAgree(runsRead, os.Stdout) {
		status = 1
	}
	printParSpeedup(runsRead, os.Stdout)
	return status
}
