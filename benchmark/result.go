package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Metric is one reported value with its unit, as the contract prints it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Check is one output check; a failed check fails the run.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Run is everything one run of one workload produced. One Run is appended
// to the result file per run; the contract's final stdout line is a
// subset of it (see finalLine).
type Run struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Host      Host                   `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]Metric      `json:"metrics"`
	Counts    map[string]float64     `json:"counts,omitempty"`
	Micros    map[string]microResult `json:"micros,omitempty"`
	Digest    string                 `json:"sim_digest,omitempty"`
	// SliceNs is wall ns per delivered packet for every slice of an
	// untraced run's window, in order: what pkts_per_s is a quantile of.
	SliceNs   []float64  `json:"slice_ns,omitempty"`
	Checks    []Check    `json:"checks"`
	CostSheet *costSheet `json:"cost_sheet,omitempty"`
}

func (r *Run) check(name string, pass bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// finish derives Correct from the checks.
func (r *Run) finish() {
	r.Correct = true
	for _, c := range r.Checks {
		if !c.Pass {
			r.Correct = false
		}
	}
}

// setMetrics fills r.Metrics with exactly the names want lists, taking the
// unit from the spec. A value the run did not produce, or one the spec
// does not list, is a bug in the benchmark and fails loudly.
func (r *Run) setMetrics(want []SpecMetric, values map[string]float64) error {
	r.Metrics = make(map[string]Metric, len(want))
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("workload %s produced no value for metric %s", r.Workload, m.Name)
		}
		r.Metrics[m.Name] = Metric{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("workload %s produced metric %s, which BENCHMARK.json does not list", r.Workload, name)
		}
	}
	return nil
}

// print writes the human-readable report: every metric by name with its
// unit, the output checks, and the cost sheet of a traced run.
func (r *Run) print(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%d trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "   %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "   attempted %d, failed %d\n", r.Attempted, r.Failed)
	if r.Digest != "" {
		fmt.Fprintf(w, "   sim_digest %s\n", r.Digest)
	}
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "   [%s] %s: %s\n", mark, c.Name, c.Detail)
	}
	if r.CostSheet != nil {
		r.CostSheet.print(w)
	}
}

// finalLine is the contract's last stdout line.
func (r *Run) finalLine() string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(b)
}

// appendResult appends the run as one JSON line to path.
func appendResult(path string, r *Run) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
