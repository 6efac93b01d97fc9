package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Spec mirrors BENCHMARK.json, the one place where the workload names, the
// metric names, their units and the regression bounds are fixed. The
// program knows how to measure each name; what the names are, and how much
// worse a metric may get, it reads from the file.
type Spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []SpecLoad   `json:"workloads"`
	EndToEnd   []SpecMetric `json:"end_to_end"`
	PerLayer   []SpecMetric `json:"per_layer"`
}

type SpecLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory (how the
// command is run) or its parent (how `go test` runs the smoke test).
func loadSpec() (*Spec, string, error) {
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var s Spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, dir, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func (s *Spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// The four workloads, in the order a full pass runs them.
const (
	wlPair    = "pair_stream"
	wlMesh    = "mesh_flows"
	wlMeshPar = "mesh_flows_par"
	wlUDP     = "udp_loopback"
)

var workloadOrder = []string{wlPair, wlMesh, wlMeshPar, wlUDP}
