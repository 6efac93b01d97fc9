package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// pinsJSON holds the sim_digest of each simulated workload for seed 1 at
// the benchmark's own window (BENCHMARK.json has a fixed set of keys and
// no room for them). A run with that seed and window must reproduce its
// digest bit for bit; a change that alters simulated behaviour on purpose
// re-pins them in the same commit.
//
//go:embed pins.json
var pinsJSON []byte

type pins struct {
	Seed       int64             `json:"seed"`
	RunSeconds int               `json:"run_seconds"`
	Digests    map[string]string `json:"sim_digest"`
}

// pinCheck adds the pinned-digest check to a simulated run it applies to.
func pinCheck(r *Run, spec *Spec) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		r.check("pins.json parses", false, "%v", err)
		r.finish()
		return
	}
	want, pinned := p.Digests[r.Workload]
	if !pinned || r.Seed != p.Seed || r.Seconds != p.RunSeconds || p.RunSeconds != spec.RunSeconds {
		return
	}
	r.check("sim_digest matches the pin for seed 1", r.Digest == want, "got %s, pinned %s", r.Digest, want)
	r.finish()
}

// readResults loads every run of a result file (one JSON object per line).
func readResults(path string) ([]*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []*Run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, &r)
	}
	return runs, sc.Err()
}

// meshDigestsAgree checks that mesh_flows and mesh_flows_par, wherever both
// ran with one seed and window, produced the same simulated output: the
// worker count may change wall time and nothing else.
func meshDigestsAgree(runs []*Run, w io.Writer) bool {
	type key struct {
		seed    int64
		seconds int
	}
	seq, par := map[key]string{}, map[key]string{}
	for _, r := range runs {
		k := key{r.Seed, r.Seconds}
		switch r.Workload {
		case wlMesh:
			seq[k] = r.Digest
		case wlMeshPar:
			par[k] = r.Digest
		}
	}
	ok := true
	for k, d := range seq {
		if p, both := par[k]; both && p != d {
			fmt.Fprintf(w, "FAIL: seed %d: mesh_flows digest %s differs from mesh_flows_par %s\n", k.seed, d, p)
			ok = false
		}
	}
	return ok
}

// untracedValues collects one end-to-end metric's values per workload.
func untracedValues(runs []*Run, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// printParSpeedup prints the cross-workload form of sim.par_speedup.
func printParSpeedup(runs []*Run, w io.Writer) {
	seq := median(untracedValues(runs, wlMesh, "pkts_per_s"))
	par := median(untracedValues(runs, wlMeshPar, "pkts_per_s"))
	if seq > 0 && par > 0 {
		fmt.Fprintf(w, "mesh_flows_par / mesh_flows pkts_per_s: %.0f / %.0f = %.3f\n", par, seq, par/seq)
	}
}

// calibTolerance is how far two sets' calibration medians may differ
// before the comparer refuses to judge them.
const calibTolerance = 0.10

func calibMedian(runs []*Run) float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.Host.CalibNs)
	}
	return median(xs)
}

type side struct {
	med, q1, q3 float64
	n           int
}

func summarize(xs []float64) side {
	q1, q3 := quartiles(xs)
	return side{med: median(xs), q1: q1, q3: q3, n: len(xs)}
}

func (s side) spread() float64 {
	if s.med == 0 {
		return math.Inf(1)
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// verdict judges B against base A for one metric with the bound from
// BENCHMARK.json: worse by more than the bound is a regression, and where
// either side's own spread exceeds the bound the pair is unresolved.
func verdict(m SpecMetric, a, b side) (string, float64) {
	worse := (b.med - a.med) / math.Abs(a.med)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.n < 2 || b.n < 2:
		if worse > m.Bound {
			return "worse (single run)", worse
		}
		return "single run", worse
	case math.Max(a.spread(), b.spread()) > m.Bound:
		return "unresolved", worse
	case worse > m.Bound:
		return "worse", worse
	case -worse > a.spread():
		return "better", worse
	}
	return "within bound", worse
}

// compareFiles prints, per end-to-end metric, one row per workload with
// each side's median and quartiles, the ratio with its base, and a
// verdict. It returns 1 when any metric is worse or a simulated output
// changed, 2 when the two sets cannot be compared at all.
func compareFiles(spec *Spec, pathA, pathB string, w io.Writer) int {
	var sets [2][]*Run
	for i, path := range []string{pathA, pathB} {
		runs, err := readResults(path)
		if err == nil && len(runs) == 0 {
			err = fmt.Errorf("%s holds no runs", path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		sets[i] = runs
	}
	a, b := sets[0], sets[1]
	ca, cb := calibMedian(a), calibMedian(b)
	fmt.Fprintf(w, "base A = %s (%d runs, %s, calib %.0f ns)\n     B = %s (%d runs, %s, calib %.0f ns)\n",
		pathA, len(a), a[0].Host.CPUModel, ca, pathB, len(b), b[0].Host.CPUModel, cb)
	if d := math.Abs(cb-ca) / ca; d > calibTolerance {
		fmt.Fprintf(w, "REFUSED: calibration differs by %.1f%% of A's %.0f ns (limit %.0f%%): the two sets were not measured on comparable hosts\n",
			100*d, ca, 100*calibTolerance)
		return 2
	}
	status := 0
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(w, "\n%s [%s, %s is better, bound %.1f%%]\n", m.Name, m.Unit, m.Better, 100*m.Bound)
		fmt.Fprintf(w, "  %-15s %36s %36s %18s  %s\n", "workload", "A median (q1..q3) n", "B median (q1..q3) n", "B/A", "verdict")
		for _, wl := range spec.Workloads {
			sa := summarize(untracedValues(a, wl.Name, m.Name))
			sb := summarize(untracedValues(b, wl.Name, m.Name))
			if sa.n == 0 || sb.n == 0 {
				fmt.Fprintf(w, "  %-15s missing on one side (A %d runs, B %d runs)\n", wl.Name, sa.n, sb.n)
				continue
			}
			v, worse := verdict(m, sa, sb)
			if v == "worse" || v == "worse (single run)" {
				status = 1
			}
			change := fmt.Sprintf("%.1f%% worse", 100*worse)
			if worse < 0 {
				change = fmt.Sprintf("%.1f%% better", -100*worse)
			}
			fmt.Fprintf(w, "  %-15s %12.6g (%.6g..%.6g) %2d %12.6g (%.6g..%.6g) %2d %8.4f of %-8.5g %s (%s)\n",
				wl.Name, sa.med, sa.q1, sa.q3, sa.n, sb.med, sb.q1, sb.q3, sb.n, sb.med/sa.med, sa.med, v, change)
		}
	}
	if !sameSimOutputs(a, b, w) {
		status = 1
	}
	return status
}

// sameSimOutputs compares what must repeat exactly on the simulated
// workloads wherever both sets ran the same seed and window: the digest,
// and with it every simulated count.
func sameSimOutputs(a, b []*Run, w io.Writer) bool {
	type key struct {
		workload string
		seed     int64
		seconds  int
	}
	base := map[key]*Run{}
	for _, r := range a {
		if r.Digest != "" {
			base[key{r.Workload, r.Seed, r.Seconds}] = r
		}
	}
	same, compared := true, 0
	for _, r := range b {
		ra, ok := base[key{r.Workload, r.Seed, r.Seconds}]
		if !ok || r.Digest == "" {
			continue
		}
		compared++
		if ra.Digest != r.Digest || ra.Attempted != r.Attempted || ra.Failed != r.Failed {
			fmt.Fprintf(w, "DIFFERENT simulated output: %s seed %d: digest %s vs %s, attempted %d vs %d, failed %d vs %d\n",
				r.Workload, r.Seed, ra.Digest, r.Digest, ra.Attempted, r.Attempted, ra.Failed, r.Failed)
			same = false
		}
	}
	if same {
		fmt.Fprintf(w, "\nsimulated outputs identical on all %d (workload, seed) pairs both sets ran\n", compared)
	}
	return same
}
