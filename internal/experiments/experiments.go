// Package experiments regenerates every quantitative artifact in the
// paper's evaluation (§4.1, §5, Figures 3 and 4) plus the supporting
// analyses DESIGN.md lists as E6-E8, on the simulated Vultr deployment.
//
// Each experiment returns a Result: pass/fail checks against the paper's
// claims (shape, not absolute numbers), human-readable table rows, and
// the time series needed to redraw the figures. Registry lists the entry
// points; the cmd/tango-lab binary drives them.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"tango/internal/measure"
)

// Check compares one of the paper's claims against the measured value.
type Check struct {
	Name     string
	Paper    string // what the paper reports
	Measured string // what this run measured
	Pass     bool
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Checks []Check
	// Rows is a display table: Rows[0] is the header.
	Rows [][]string
	// Series holds figure data keyed by label.
	Series map[string]*measure.Series
	// Notes carries free-form observations.
	Notes []string
	// VirtualTime is how much simulated time the experiment covered.
	VirtualTime time.Duration
	// Metrics is the deployment's final observability snapshot, keyed
	// "name{labels}" (histograms contribute _count and _sum entries).
	// tango-lab writes it as <id>_metrics.json next to the CSV series.
	Metrics map[string]float64
	// Trace is the deployment's final trace journal rendered as JSON
	// (empty for experiments without a journal). Seeded runs produce it
	// byte-identically; the shard-invariance differential compares it
	// across worker counts.
	Trace string
	// Err says why the run produced no checks: a driver panic recovered
	// by RunJobs, or a Config the driver cannot run at. A non-empty Err
	// fails Passed regardless of the (absent) checks.
	Err string
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Series: make(map[string]*measure.Series)}
}

func (r *Result) check(name, paper string, pass bool, measuredFmt string, args ...any) {
	r.Checks = append(r.Checks, Check{
		Name:     name,
		Paper:    paper,
		Measured: fmt.Sprintf(measuredFmt, args...),
		Pass:     pass,
	})
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Passed reports whether every check passed and the run did not die.
func (r *Result) Passed() bool {
	if r.Err != "" {
		return false
	}
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// WriteText renders the result for a terminal.
func (r *Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s (virtual time %v)\n", r.ID, r.Title, r.VirtualTime)
	if r.Err != "" {
		fmt.Fprintf(w, "   [FAIL] %s\n", r.Err)
	}
	if len(r.Rows) > 0 {
		widths := make([]int, len(r.Rows[0]))
		for _, row := range r.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		for ri, row := range r.Rows {
			var b strings.Builder
			b.WriteString("   ")
			for i, cell := range row {
				fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
			}
			fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
			if ri == 0 {
				fmt.Fprintf(w, "   %s\n", strings.Repeat("-", sum(widths)+2*len(widths)))
			}
		}
	}
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "   [%s] %-38s paper: %-28s measured: %s\n", mark, c.Name, c.Paper, c.Measured)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce bit-for-bit.
	Seed int64
	// Duration is the main measurement window of virtual time. Zero
	// uses each experiment's default (kept modest so the full suite
	// runs in seconds of real time; the paper's 8-day trace is the
	// same process run longer).
	Duration time.Duration
	// Shards is how many worker goroutines advance the partitions of the
	// experiment's network in parallel epochs (see topo.MeshConfig.Shards);
	// 0 means one. The partition layout depends only on the topology, so
	// every value produces identical Results and trace journals — the
	// shard-invariance differential test pins exactly that. E10, E11, E12,
	// E13 and E15 read it; the rest run on one partition (the Vultr lab,
	// E14's generated internet) and ignore it.
	Shards int
	// Sites scales the wide mesh of E12, E13 and E15 (0 = the full
	// 64-site / 10k-tunnel deployment; CI smoke runs a fraction of that)
	// and E14's generated stub-site count. Other experiments have fixed
	// topologies and ignore it.
	Sites int
	// Flows scales E13's concurrent flow population (0 = the full one
	// million). Other experiments ignore it.
	Flows int
}

// probeInterval is the paper's per-path measurement cadence; the wide
// mesh probes at wideProbeInterval instead (see wideSites).
const probeInterval = 10 * time.Millisecond

func (c Config) dur(def time.Duration) time.Duration {
	if c.Duration == 0 {
		return def
	}
	return c.Duration
}

// Experiment is one row of the registry: the id tango-lab's -run flag
// spells, the driver, and whether `-run all` includes it.
type Experiment struct {
	ID    string
	Run   func(Config) *Result
	InAll bool
}

// Registry lists every experiment once, in report order. E12-E15 run
// minutes rather than seconds, so they are opt-in by id.
var Registry = []Experiment{
	{"e1", E1PathDiscovery, true},
	{"e2", E2OWDComparison, true},
	{"e3", E3Jitter, true},
	{"e4", E4RouteChange, true},
	{"e5", E5Instability, true},
	{"e6", E6InOrderImpact, true},
	{"e7", E7MeasurementSoundness, true},
	{"e8", E8DataPlaneCost, true},
	{"e9", E9LossReorder, true},
	{"e10", E10MeshOverlay, true},
	{"e11", E11Failover, true},
	{"e12", E12ShardedStorm, false},
	{"e13", E13FlowStorm, false},
	{"e14", E14DiscoverySweep, false},
	{"e15", E15TrafficEngineering, false},
}

// within reports whether v lies in [lo, hi].
func within(v, lo, hi float64) bool { return v >= lo && v <= hi }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
