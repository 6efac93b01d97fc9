package events

import (
	"testing"
	"time"

	"tango/internal/sim"
	"tango/internal/simnet"
)

// sampleLine draws n delays from the line's shaper at the engine's
// current virtual time.
func sampleLine(line *simnet.Line, rng *sim.RNG, n int) (min, max, sum time.Duration) {
	min = time.Hour
	for i := 0; i < n; i++ {
		v := line.Shaper().Sample(0, rng)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	return
}

func newLine(t *testing.T) (*simnet.Network, *simnet.Line) {
	t.Helper()
	w := simnet.New(9)
	a := w.AddNode("a", 0)
	b := w.AddNode("b", 0)
	l := w.Connect(a, b,
		simnet.LinkConfig{Delay: simnet.GaussianDelay{Floor: 28 * time.Millisecond, Mean: 28150 * time.Microsecond, Std: 10 * time.Microsecond}},
		simnet.LinkConfig{})
	return w, l.LineAB()
}

func TestRouteShiftLifecycle(t *testing.T) {
	w, line := newLine(t)
	rng := sim.NewStreams(1).Stream("test")

	shift := &RouteShift{
		Line:            line,
		At:              time.Hour,
		Duration:        10 * time.Minute,
		Delta:           5 * time.Millisecond,
		EdgeInstability: 20 * time.Second,
	}
	shift.Schedule(w.Eng)

	// Before: baseline floor.
	min, _, _ := sampleLine(line, rng, 200)
	if min < 28*time.Millisecond || min > 29*time.Millisecond {
		t.Fatalf("pre-event min = %v", min)
	}

	// During the transition edge: spikes present.
	w.Run(time.Hour + 5*time.Second)
	_, max, _ := sampleLine(line, rng, 500)
	if max < 30*time.Millisecond {
		t.Fatalf("transition produced no spikes: max = %v", max)
	}

	// Settled: floor + 5ms, no overlay spikes.
	w.Run(time.Hour + time.Minute)
	min, max, _ = sampleLine(line, rng, 500)
	if min < 33*time.Millisecond || min > 34*time.Millisecond {
		t.Fatalf("settled min = %v, want ~33ms", min)
	}
	if max > 34*time.Millisecond {
		t.Fatalf("settled max = %v; overlay not cleared", max)
	}

	// Reverted after duration (+edge).
	w.Run(time.Hour + 11*time.Minute)
	min, _, _ = sampleLine(line, rng, 500)
	if min > 29*time.Millisecond {
		t.Fatalf("post-event min = %v; offset not reverted", min)
	}
	if line.Shaper().Offset() != 0 {
		t.Fatal("offset left behind")
	}
}

func TestInstabilityWindow(t *testing.T) {
	w, line := newLine(t)
	rng := sim.NewStreams(2).Stream("test")

	inst := &Instability{
		Line:           line,
		At:             30 * time.Minute,
		Duration:       5 * time.Minute,
		SpikeProb:      0.02,
		SpikeMean:      18 * time.Millisecond,
		SpikeCap:       48 * time.Millisecond,
		MinorExtraMean: time.Millisecond,
		MinorExtraStd:  2 * time.Millisecond,
	}
	inst.Schedule(w.Eng)

	w.Run(31 * time.Minute)
	min, max, _ := sampleLine(line, rng, 5000)
	// Paper shape: some packets still arrive near the 28ms floor...
	if min > 29*time.Millisecond {
		t.Fatalf("during instability min = %v; floor packets should survive", min)
	}
	// ...while spikes more than double it (peak 78ms against cap
	// 28+minor+48).
	if max < 56*time.Millisecond {
		t.Fatalf("instability max = %v, want >2x floor", max)
	}
	// Bounded by floor + minor tail (unbounded Gaussian, practically
	// <8ms) + spike cap.
	if max > 85*time.Millisecond {
		t.Fatalf("instability max = %v exceeds plausible bound", max)
	}

	// Window closes cleanly.
	w.Run(36 * time.Minute)
	_, max, _ = sampleLine(line, rng, 1000)
	if max > 29*time.Millisecond {
		t.Fatalf("post-window max = %v; overlay not cleared", max)
	}
}

func TestLossBurstWindow(t *testing.T) {
	w, line := newLine(t)
	line.SetLoss(0.001)
	b := &LossBurst{Line: line, At: time.Minute, Duration: time.Minute, Loss: 0.3}
	b.Schedule(w.Eng)
	w.Run(90 * time.Second)
	if line.Loss() != 0.3 {
		t.Fatalf("burst loss = %v", line.Loss())
	}
	w.Run(3 * time.Minute)
	if line.Loss() != 0.001 {
		t.Fatalf("loss not restored: %v", line.Loss())
	}
}
