package main

import (
	"fmt"
	"io"
	"sort"
)

// The cost sheet answers "where does one delivered packet's time go" three
// ways, and says how well they agree:
//
//   - self: in-situ CPU time per layer from the profiled part of the window
//     (prof.go). These are the rows that must reconcile with the workload's
//     per-packet CPU time: benchmark.unaccounted_share is what they miss.
//   - spans: what the boundaries reachable from outside saw — count per
//     packet, mean duration, self time (duration minus child spans, minus
//     what recording the spans themselves cost).
//   - model: count per packet × unit cost from the micros. This is the
//     prediction a later change is judged against; benchmark.model_gap_share
//     is the share of the per-packet time it does not explain, and a large
//     gap means a layer costs more in place than its micro says.

// sheetLayers are the layers a cost sheet has a self row for, in print
// order; each is reported as <layer>.self_ns_per_pkt.
var sheetLayers = []string{
	"packet", "dataplane", "simnet", "sim", "workload", "control",
	"chaos", "obs", "udp", "benchmark", "runtime",
}

type costRow struct {
	Layer       string  `json:"layer"`
	Name        string  `json:"name"`
	CountPerPkt float64 `json:"count_per_pkt"`
	UnitNs      float64 `json:"unit_ns"`
	NsPerPkt    float64 `json:"ns_per_pkt"`
}

type costSheet struct {
	Workload string `json:"workload"`
	Workers  int    `json:"workers"`
	// CPUPerPktNs is process CPU per delivered packet over the profiled
	// part of the window; WallPerPktNs is 1e9 ÷ pkts/s × workers over the
	// plain part. Both are bases the rows are compared with.
	CPUPerPktNs  float64   `json:"cpu_per_pkt_ns"`
	WallPerPktNs float64   `json:"wall_per_pkt_ns"`
	Self         []costRow `json:"self"`
	Spans        []costRow `json:"spans"`
	Model        []costRow `json:"model"`
	Unaccounted  float64   `json:"unaccounted_share"`
	ModelGap     float64   `json:"model_gap_share"`
	ProfileCPUNs int64     `json:"profile_cpu_ns"`
}

// profileLayer folds the profiler's package names onto the sheet's rows.
func profileLayer(l string) string {
	switch l {
	case "runtime.gc", "runtime.sched":
		return "runtime"
	case "packet", "dataplane", "simnet", "sim", "workload", "control", "chaos", "obs", "udp", "benchmark":
		return l
	case "addr":
		return "simnet" // FIB and peer-prefix tries; the forwarding lookup dominates
	case "measure":
		return "control" // the monitor's rolling statistics
	}
	return "benchmark" // set-up layers (topo, bgp, core) do not run inside a window
}

func buildCostSheet(workload string, workers int, plain, profiled, spanned phaseResult,
	prof *layerProfile, ts *tracerSet, model []costRow) *costSheet {

	s := &costSheet{Workload: workload, Workers: workers, Model: model, ProfileCPUNs: prof.total}
	pkProfiled := float64(profiled.counts.delivered)
	s.CPUPerPktNs = float64(profiled.cpu.Nanoseconds()) / pkProfiled
	s.WallPerPktNs = plain.nsPerPkt() * float64(workers)

	byLayer := map[string]float64{}
	for l, ns := range prof.ns {
		byLayer[profileLayer(l)] += float64(ns) / pkProfiled
	}
	var accounted float64
	for _, l := range sheetLayers {
		s.Self = append(s.Self, costRow{Layer: l, Name: "in-situ self (cpu profile)", CountPerPkt: 1, UnitNs: byLayer[l], NsPerPkt: byLayer[l]})
		accounted += byLayer[l]
	}
	s.Unaccounted = 1 - accounted/s.CPUPerPktNs

	inside := spanCost()
	agg := ts.totals()
	pkSpanned := float64(spanned.counts.delivered)
	for n := spanName(0); n < numSpanNames; n++ {
		a := agg[n]
		if a.count == 0 {
			continue
		}
		// Part of what recording a span costs falls between its own two
		// clock reads; that part is not the layer's time.
		self := float64(a.self)/float64(a.count) - inside
		if self < 0 {
			self = 0
		}
		s.Spans = append(s.Spans, costRow{
			Layer:       spanInfo[n].layer,
			Name:        spanInfo[n].name,
			CountPerPkt: float64(a.count) / pkSpanned,
			UnitNs:      float64(a.total) / float64(a.count),
			NsPerPkt:    self * float64(a.count) / pkSpanned,
		})
	}

	var predicted float64
	for _, r := range model {
		predicted += r.NsPerPkt
	}
	s.ModelGap = 1 - predicted/s.WallPerPktNs
	return s
}

// fill reports the sheet's figures as per-layer metrics.
func (s *costSheet) fill(values map[string]float64) {
	for _, r := range s.Self {
		values[r.Layer+".self_ns_per_pkt"] = r.NsPerPkt
	}
	values["benchmark.unaccounted_share"] = s.Unaccounted
	values["benchmark.model_gap_share"] = s.ModelGap
}

// layerSums totals rows by layer.
func layerSums(rows []costRow) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		out[r.Layer] += r.NsPerPkt
	}
	return out
}

func (s *costSheet) print(w io.Writer) {
	fmt.Fprintf(w, "   -- cost sheet: %s, per delivered packet\n", s.Workload)
	fmt.Fprintf(w, "      bases: cpu %.0f ns/pkt (profiled part), wall x workers %.0f ns/pkt (plain part, %d workers)\n",
		s.CPUPerPktNs, s.WallPerPktNs, s.Workers)
	model := layerSums(s.Model)
	fmt.Fprintf(w, "      %-10s %14s %8s %14s %8s\n", "layer", "in-situ self ns", "share", "model ns", "share")
	for _, r := range s.Self {
		fmt.Fprintf(w, "      %-10s %14.1f %7.1f%% %14.1f %7.1f%%\n", r.Layer,
			r.NsPerPkt, 100*r.NsPerPkt/s.CPUPerPktNs, model[r.Layer], 100*model[r.Layer]/s.WallPerPktNs)
	}
	fmt.Fprintf(w, "      unaccounted by in-situ rows: %.1f%% of %.0f ns; not explained by the model: %.1f%% of %.0f ns\n",
		100*s.Unaccounted, s.CPUPerPktNs, 100*s.ModelGap, s.WallPerPktNs)
	fmt.Fprintf(w, "      model rows (count per packet x unit cost):\n")
	for _, r := range s.Model {
		fmt.Fprintf(w, "        %-10s %-44s %8.3f x %8.1f ns = %8.1f ns\n", r.Layer, r.Name, r.CountPerPkt, r.UnitNs, r.NsPerPkt)
	}
	if len(s.Spans) > 0 {
		fmt.Fprintf(w, "      spans (count per packet, mean duration, self ns per packet):\n")
		rows := append([]costRow(nil), s.Spans...)
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].NsPerPkt > rows[j].NsPerPkt })
		for _, r := range rows {
			fmt.Fprintf(w, "        %-10s %-20s %8.3f x %8.1f ns, self %8.1f ns\n", r.Layer, r.Name, r.CountPerPkt, r.UnitNs, r.NsPerPkt)
		}
	}
}
