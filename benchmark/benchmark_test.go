package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeSize shrinks every size so that all four workloads, untraced and
// traced, run inside a tier-1 test. The figures it produces mean nothing;
// the names, units and checks are what the test is about.
var smokeSize = sizing{
	pairVirtualMs:   4000,
	pairFlowsPerDir: 16,
	meshVirtualMs:   4000,
	meshSites:       4,
	meshFlows:       512,
	meshTargetPPS:   2000,
	setupReps:       1,
	udpWarmup:       20 * time.Millisecond,
	udpPhase:        80 * time.Millisecond,
	microReps:       1,
	microBenchtime:  "1x",
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// endToEnd looks an end-to-end metric up by name.
func (s *Spec) endToEnd(name string) (SpecMetric, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return SpecMetric{}, false
}

// TestContract holds BENCHMARK.json to the limits of the contract it was
// written to, so that a later edit cannot drift outside them unnoticed.
func TestContract(t *testing.T) {
	spec, dir, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
	}

	if n := len(spec.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, c := range spec.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if n := len(spec.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths", n)
	}
	for _, p := range spec.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if i >= len(workloadOrder) || workloadOrder[i] != w.Name {
			t.Errorf("workload %d is %q; the program runs %v", i, w.Name, workloadOrder)
		}
	}
	metric := func(kind string, m SpecMetric) {
		name(kind, m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		metric("end-to-end metric", m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		metric("per-layer metric", m)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	setup, ok := spec.endToEnd("setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// TestSmoke runs every workload untraced and traced at smoke size and
// asserts that what they emit is exactly what BENCHMARK.json names, so the
// names later issues cite cannot drift, and that every output check passes.
func TestSmoke(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	outDir = t.TempDir()
	digests := map[string]string{}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			var r *Run
			var err error
			if w.Name == wlUDP {
				r, err = runUDP(1, 1, trace, spec, smokeSize)
			} else {
				r, err = runSim(w.Name, 1, 1, trace, spec, smokeSize)
			}
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			for _, c := range r.Checks {
				if !c.Pass {
					t.Errorf("%s trace=%v: check %q failed: %s", w.Name, trace, c.Name, c.Detail)
				}
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, m.Name, got.Value)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, trace, r.Attempted, r.Failed)
			}
			var line struct {
				Correct   *bool             `json:"correct"`
				Attempted *uint64           `json:"attempted"`
				Failed    *uint64           `json:"failed"`
				Metrics   map[string]Metric `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(r.finalLine()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s: final line %q: %v", w.Name, r.finalLine(), err)
			}
			if r.Digest != "" {
				if prev, ok := digests[w.Name]; ok && prev != r.Digest {
					t.Errorf("%s: traced digest %s differs from untraced %s", w.Name, r.Digest, prev)
				}
				digests[w.Name] = r.Digest
			}
			if trace {
				if r.CostSheet == nil || len(r.CostSheet.Self) != len(sheetLayers) || len(r.CostSheet.Model) == 0 {
					t.Errorf("%s: traced run has no complete cost sheet", w.Name)
				}
				if _, err := os.Stat(traceFile(w.Name)); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
		}
	}
	if digests[wlMesh] == "" || digests[wlMesh] != digests[wlMeshPar] {
		t.Errorf("mesh_flows digest %q, mesh_flows_par %q: the worker count changed the simulation", digests[wlMesh], digests[wlMeshPar])
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// which is what the acceptance driver computes spreads with.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// TestProfileAttribution checks the hand-written pprof reader against the
// kernel's own account of the CPU a busy loop used.
func TestProfileAttribution(t *testing.T) {
	var x uint64
	cpu0 := cpuTime()
	p, err := profileWindow(func() {
		for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
			for i := 0; i < 1000; i++ {
				x += uint64(i) * (x | 1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cpu := float64(cpuTime() - cpu0)
	if got := float64(p.total); got < 0.7*cpu || got > 1.3*cpu {
		t.Errorf("profile accounts for %v of %v CPU", time.Duration(p.total), time.Duration(cpu))
	}
	// Under the race detector most samples land in its own runtime calls,
	// whose stacks do not unwind into the loop; some must still be ours.
	if p.ns["benchmark"] == 0 {
		t.Errorf("a loop in this package was attributed to %v", p.ns)
	}
	for fn, want := range map[string]string{
		"tango/internal/sim.(*wheel).insertDue":         "sim",
		"tango/internal/transport/udp.(*Backend).write": "udp",
		"tango/internal/packet.checksum":                "packet",
		"runtime.memmove":                               "",
		"main.(*tracer).begin":                          "benchmark",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCompare feeds the comparer two hand-made result sets.
func TestCompare(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, pps []float64, calib float64) string {
		path := filepath.Join(t.TempDir(), name)
		for i, v := range pps {
			r := &Run{Workload: wlPair, Seed: int64(i + 1), Seconds: 10, Host: Host{CalibNs: calib}, Digest: "d",
				Metrics: map[string]Metric{"pkts_per_s": {Value: v, Unit: "pkt/s"}}}
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	pps, _ := spec.endToEnd("pkts_per_s")
	a := write("a.jsonl", base, 1000)
	for _, c := range []struct {
		name   string
		b      string
		status int
		says   string
	}{
		{"same", write("same.jsonl", base, 1010), 0, "within bound"},
		{"slower", write("slow.jsonl", scaled(1-pps.Bound-0.05), 1000), 1, "worse"},
		{"faster", write("fast.jsonl", scaled(1.3), 1000), 0, "better"},
		{"noisy", write("noisy.jsonl", []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}, 1000), 0, "unresolved"},
		{"other host", write("host.jsonl", base, 1300), 2, "REFUSED"},
	} {
		var out bytes.Buffer
		if got := compareFiles(spec, a, c.b, &out); got != c.status {
			t.Errorf("%s: status %d, want %d\n%s", c.name, got, c.status, out.String())
		}
		if !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: output does not say %q:\n%s", c.name, c.says, out.String())
		}
	}
}
