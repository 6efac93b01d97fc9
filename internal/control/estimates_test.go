package control

import (
	"sort"
	"testing"

	"tango/internal/dataplane"
	"tango/internal/simnet"
)

// The sorted snapshot is maintained incrementally: new path IDs splice
// into place on first report and later reports only mutate in place, so
// Estimates never re-sorts. This test feeds IDs in a hostile order with
// repeated updates and checks the snapshot stays sorted, complete, and
// duplicate-free.
func TestEstimatesSortedIncremental(t *testing.T) {
	w := simnet.New(11)
	n := w.AddNode("x", 0)
	ctl := NewController(w.Eng, dataplane.NewSwitch(n), &MinOWD{})
	ids := []uint8{9, 3, 250, 1, 77, 3, 9, 128, 2, 250, 1}
	for i, id := range ids {
		ctl.UpdateEstimate(id, float64(100+i), 0, uint16(i))
	}
	ests := ctl.Estimates()
	want := []uint8{1, 2, 3, 9, 77, 128, 250}
	if len(ests) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d: %+v", len(ests), len(want), ests)
	}
	for i, e := range ests {
		if e.ID != want[i] {
			t.Fatalf("snapshot[%d].ID = %d, want %d", i, e.ID, want[i])
		}
	}
	if !sort.SliceIsSorted(ests, func(i, j int) bool { return ests[i].ID < ests[j].ID }) {
		t.Fatal("snapshot not sorted")
	}
	// Updates land in the snapshot (ID 1 was last updated at i=10).
	if ests[0].OWDMs != 110 {
		t.Fatalf("latest update for path 1 missing: OWD %v", ests[0].OWDMs)
	}
	// The snapshot is a copy: mutating it must not corrupt the controller.
	ests[0].OWDMs = -1
	if again := ctl.Estimates(); again[0].OWDMs != 110 {
		t.Fatal("snapshot aliases controller state")
	}
}

// benchController returns a controller pre-loaded with n path estimates.
func benchController(b *testing.B, n int) *Controller {
	b.Helper()
	w := simnet.New(12)
	node := w.AddNode("x", 0)
	ctl := NewController(w.Eng, dataplane.NewSwitch(node), &MinOWD{})
	for i := 0; i < n; i++ {
		ctl.UpdateEstimate(uint8(i*37%251), float64(20+i), 0.5, 100)
	}
	return ctl
}

// BenchmarkEstimatesSnapshot measures the incremental-order snapshot the
// decision loop takes every tick (via the reusable scratch buffer, as
// decide does).
func BenchmarkEstimatesSnapshot(b *testing.B) {
	ctl := benchController(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.scratch = ctl.estimatesInto(ctl.scratch[:0])
	}
}
