// Command tango-lab regenerates the paper's evaluation: every figure and
// in-text number from §4.1 and §5 (plus the supporting analyses E6-E11
// from DESIGN.md) on the simulated Vultr deployment.
//
// Usage:
//
//	tango-lab [-run e1,e2,...|all] [-seed N] [-duration 2h] [-csv DIR]
//	          [-parallel N] [-shards N] [-sites N] [-flows N]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// Each experiment prints a table, the paper-vs-measured checks, and
// optionally writes figure series as CSV files into -csv DIR. The
// profile flags capture pprof data over the whole run, for digging into
// fast-path regressions the benchmark (go run ./benchmark) flags.
//
// -parallel N runs up to N experiments concurrently, one simulation
// engine per goroutine (N <= 0 means one per CPU). Experiments are fully
// isolated, so the reports are byte-identical to a serial run; output is
// buffered and printed in experiment order once all results are in.
// Serial or not, a driver that panics fails its own report, with the
// panic, and the other experiments still run.
//
// -shards N advances the partitions of the multi-partition experiments
// (e10, e11, e12, e13, e15) on N worker goroutines in lock-stepped epochs;
// 0 means one worker. The partition layout is fixed by the topology, so
// every N produces the same report — only wall-clock time changes. The
// Vultr experiments (e1-e9) run on one partition. e12, the 64-site /
// 10k-tunnel storm scale test, e13, the million-concurrent-flow SLO run
// on the same mesh, e14, the discovery sweep over a generated 521-AS
// internet, and e15, the traffic-engineering comparison of greedy
// best-path steering against Link-Guided Local Search weights on the
// capacitated mesh, are not part of 'all' (they run minutes, not
// seconds); select them explicitly with -run e12/e13/e14/e15, and shrink
// them with -sites and -flows when smoke-testing. e14 runs every swept
// pair on one generated internet, one partition, so -shards does not
// apply to it; -sites sets its generated stub-site count.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"tango/internal/experiments"
)

func main() {
	// realMain returns instead of calling os.Exit so the profile-writing
	// defers always run, even when checks fail.
	os.Exit(realMain())
}

func realMain() int {
	var (
		run        = flag.String("run", "all", "comma-separated experiment ids (e1..e15) or 'all' (= e1..e11; e12/e13/e14/e15 are opt-in)")
		seed       = flag.Int64("seed", 1, "random seed (equal seeds reproduce exactly)")
		duration   = flag.Duration("duration", 0, "main measurement window of virtual time (0 = per-experiment default)")
		csvDir     = flag.String("csv", "", "directory to write figure series CSVs into")
		parallel   = flag.Int("parallel", 1, "run up to N experiments concurrently (<=0: one per CPU)")
		shards     = flag.Int("shards", 0, "advance the partitions of e10-e13 and e15 on N workers (0 = one)")
		sites      = flag.Int("sites", 0, "scale e12/e13/e15's wide mesh to N sites (0 = the full 64)")
		flows      = flag.Int("flows", 0, "scale e13's concurrent flow population (0 = the full 1M)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	cfg := experiments.Config{Seed: *seed, Duration: *duration, Shards: *shards, Sites: *sites, Flows: *flows}
	if err := checkScale(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "tango-lab:", err)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating cpu profile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "starting cpu profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "creating mem profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // measure live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "writing mem profile: %v\n", err)
			}
		}()
	}

	exps, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	fmt.Printf("tango-lab: reproducing HotNets '22 \"It Takes Two to Tango\" (seed %d)\n\n", *seed)
	allPass := true
	start := time.Now()
	emit := func(res *experiments.Result) error {
		res.WriteText(os.Stdout)
		fmt.Println()
		if !res.Passed() {
			allPass = false
		}
		if *csvDir != "" {
			if err := writeSeries(os.Stdout, *csvDir, res); err != nil {
				return err
			}
			return writeMetrics(os.Stdout, *csvDir, res)
		}
		return nil
	}
	jobs := make([]experiments.Job, len(exps))
	for i, e := range exps {
		jobs[i] = experiments.Job{ID: e.ID, Cfg: cfg, Run: e.Run}
	}
	if *parallel == 1 {
		// Serial runs stream each report as it finishes.
		for _, j := range jobs {
			if err := emit(experiments.RunJob(j)); err != nil {
				fmt.Fprintf(os.Stderr, "writing CSVs: %v\n", err)
				return 1
			}
		}
	} else {
		for _, res := range experiments.RunJobs(jobs, *parallel) {
			if err := emit(res); err != nil {
				fmt.Fprintf(os.Stderr, "writing CSVs: %v\n", err)
				return 1
			}
		}
	}
	fmt.Printf("completed %d experiment(s) in %v wall-clock\n", len(exps), time.Since(start).Round(time.Millisecond))
	if !allPass {
		fmt.Println("RESULT: some checks FAILED")
		return 1
	}
	fmt.Println("RESULT: all checks passed")
	return 0
}

// checkScale rejects scale flags no run can honour: a wide mesh needs
// three sites for its first pair and E14 four stubs for its four
// distinct unordered pairs, and a negative -shards, -flows or -duration
// has no meaning — a negative -shards would silently run one worker, as
// 0 does.
func checkScale(c experiments.Config) error {
	switch {
	case c.Sites != 0 && c.Sites < 4:
		return fmt.Errorf("-sites must be 0 (full scale) or at least 4, got %d", c.Sites)
	case c.Shards < 0:
		return fmt.Errorf("-shards must not be negative, got %d", c.Shards)
	case c.Flows < 0:
		return fmt.Errorf("-flows must not be negative, got %d", c.Flows)
	case c.Duration < 0:
		return fmt.Errorf("-duration must not be negative, got %v", c.Duration)
	}
	return nil
}

// selectExperiments resolves -run against experiments.Registry: "all" is
// every row flagged InAll, anything else a comma-separated list of ids.
func selectExperiments(run string) ([]experiments.Experiment, error) {
	var picked []experiments.Experiment
	if run == "all" {
		for _, e := range experiments.Registry {
			if e.InAll {
				picked = append(picked, e)
			}
		}
		return picked, nil
	}
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		i := slices.IndexFunc(experiments.Registry, func(e experiments.Experiment) bool { return e.ID == id })
		if i < 0 {
			have := make([]string, len(experiments.Registry))
			for j, e := range experiments.Registry {
				have[j] = e.ID
			}
			return nil, fmt.Errorf("unknown experiment %q (have %v)", id, have)
		}
		picked = append(picked, experiments.Registry[i])
	}
	return picked, nil
}

// writeSeries writes each of the experiment's figure series as CSV into
// dir, in sorted label order, and logs each file to w.
func writeSeries(w io.Writer, dir string, res *experiments.Result) error {
	labels := make([]string, 0, len(res.Series))
	for label := range res.Series {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		name := fmt.Sprintf("%s_%s.csv", strings.ToLower(res.ID), strings.ReplaceAll(label, "/", "_"))
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := res.Series[label].WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "   wrote %s\n", path)
	}
	return nil
}

// writeMetrics dumps the experiment's final observability snapshot as
// sorted JSON next to the CSV series. Keys are rendered instrument names
// ("tango_..._total{site=\"ny\"}"); sorting keeps the file diffable
// across runs. The file is logged to w.
func writeMetrics(w io.Writer, dir string, res *experiments.Result) error {
	if len(res.Metrics) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	path := filepath.Join(dir, strings.ToLower(res.ID)+"_metrics.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "{")
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		kb, err := json.Marshal(k)
		if err != nil {
			f.Close()
			return err
		}
		fmt.Fprintf(bw, "  %s: %s%s\n", kb, strconv.FormatFloat(res.Metrics[k], 'g', -1, 64), sep)
	}
	fmt.Fprintln(bw, "}")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "   wrote %s\n", path)
	return nil
}
