package perf

import "testing"

// TestZeroAlloc is the teeth of the perf-regression harness: it runs
// every row of Micros through testing.Benchmark and hard-fails if the
// steady-state fast path allocates at all, so an accidental per-packet
// allocation breaks `go test ./...` rather than silently eroding
// throughput.
func TestZeroAlloc(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range Micros {
		if seen[m.Name] {
			t.Fatalf("Micros lists %q twice", m.Name)
		}
		seen[m.Name] = true
	}
	if testing.Short() {
		t.Skip("skipping alloc regression check in -short mode")
	}
	for _, m := range Micros {
		t.Run(m.Name, func(t *testing.T) {
			res := testing.Benchmark(m.Fn)
			if a := res.AllocsPerOp(); a != 0 {
				t.Fatalf("%s allocates %d times per op (%d B/op), want 0 — the fast path has regressed",
					m.Name, a, res.AllocedBytesPerOp())
			}
		})
	}
}

// TestFlowMemoryPerFlow10x pins the flyweight claim: retained heap per
// concurrent flow must be at least 10x smaller than the per-AppGen
// object model it replaces.
func TestFlowMemoryPerFlow10x(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping memory measurement in -short mode")
	}
	table, appgen := FlowMemoryPerFlow()
	t.Logf("bytes per flow: flow table %.1f, per-AppGen baseline %.1f (%.1fx)",
		table, appgen, appgen/table)
	if table <= 0 || appgen <= 0 {
		t.Fatalf("degenerate measurement: table %.1f, appgen %.1f", table, appgen)
	}
	if appgen < 10*table {
		t.Fatalf("memory per flow %.1fB vs baseline %.1fB: reduction %.1fx < 10x",
			table, appgen, appgen/table)
	}
}

// BenchmarkMicro reports, per row of Micros, the numbers TestZeroAlloc
// checks: `go test -bench 'Micro/(Encap|Decap)' ./internal/perf`.
func BenchmarkMicro(b *testing.B) {
	for _, m := range Micros {
		b.Run(m.Name, m.Fn)
	}
}
