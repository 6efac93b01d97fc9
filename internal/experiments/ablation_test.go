package experiments

import (
	"strconv"
	"testing"
	"time"
)

// The ablation drivers are exercised at reduced duration; the assertions
// check the *direction* of each trade-off, which is what the benches
// report.

func TestAblationHysteresisMonotone(t *testing.T) {
	cfg := Config{Seed: 1, Duration: time.Minute}
	tiny := AblationHysteresis(cfg, 0.05)
	big := AblationHysteresis(cfg, 5.0)
	if tiny.Switches <= big.Switches {
		t.Fatalf("flap count not monotone: margin 0.05ms -> %d switches, 5ms -> %d",
			tiny.Switches, big.Switches)
	}
	if big.Switches > 3 {
		t.Fatalf("large margin still flapping: %d switches", big.Switches)
	}
	if tiny.MeanTrueOWDMs <= 0 || big.MeanTrueOWDMs <= 0 {
		t.Fatal("mean OWD not measured")
	}
}

func TestAblationProbeRateDetection(t *testing.T) {
	cfg := Config{Seed: 1, Duration: time.Minute}
	fast := AblationProbeRate(cfg, 10*time.Millisecond)
	slow := AblationProbeRate(cfg, 200*time.Millisecond)
	if fast.DetectionLatency == 0 {
		t.Fatal("fast probing never detected the event")
	}
	if slow.DetectionLatency != 0 && slow.DetectionLatency < fast.DetectionLatency {
		t.Fatalf("slower probing detected faster: %v vs %v",
			slow.DetectionLatency, fast.DetectionLatency)
	}
	if fast.ProbesSent <= slow.ProbesSent {
		t.Fatal("probe accounting wrong")
	}
}

func TestAblationCadenceRuns(t *testing.T) {
	cfg := Config{Seed: 1, Duration: time.Minute}
	res := AblationCadence(cfg, time.Second)
	if res.MeanTrueOWDMs < 25 || res.MeanTrueOWDMs > 40 {
		t.Fatalf("achieved OWD implausible: %.2f ms", res.MeanTrueOWDMs)
	}
	if res.Switches == 0 {
		t.Fatal("controller never switched through the event")
	}
}

func TestAblationEstimatorBounds(t *testing.T) {
	cfg := Config{Seed: 1}
	for _, alpha := range []float64{0.5, 0.05, 0.005} {
		misled := AblationEstimator(cfg, alpha)
		if misled < 0 || misled > 1 {
			t.Fatalf("misled fraction out of range: %v", misled)
		}
	}
	// Determinism.
	if AblationEstimator(cfg, 0.05) != AblationEstimator(cfg, 0.05) {
		t.Fatal("estimator ablation not deterministic")
	}
}

// The ablation benches print each sweep's trade-off as b.ReportMetric
// columns: `go test -run '^$' -bench Ablation -benchtime 1x`.

// BenchmarkAblationCadence sweeps the controller decision cadence
// (DESIGN.md §4): achieved OWD through an E4 event per cadence.
func BenchmarkAblationCadence(b *testing.B) {
	for _, cadence := range []time.Duration{500 * time.Millisecond, 2 * time.Second, 10 * time.Second} {
		b.Run(cadence.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := AblationCadence(Config{Seed: int64(i) + 1}, cadence)
				b.ReportMetric(res.MeanTrueOWDMs, "meanOWD-ms")
				b.ReportMetric(float64(res.Switches), "switches")
			}
		})
	}
}

// BenchmarkAblationHysteresis sweeps the switching margin: flap count vs
// achieved delay under an unstable active path.
func BenchmarkAblationHysteresis(b *testing.B) {
	for _, m := range []float64{0.05, 0.5, 5.0} {
		b.Run("margin-"+strconv.FormatFloat(m, 'g', -1, 64)+"ms", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := AblationHysteresis(Config{Seed: int64(i) + 1}, m)
				b.ReportMetric(float64(res.Switches), "switches")
				b.ReportMetric(res.MeanTrueOWDMs, "meanOWD-ms")
			}
		})
	}
}

// BenchmarkAblationEstimator sweeps the EWMA smoothing factor on a spiky
// trace: fraction of time the estimate is >1 ms from the true floor.
func BenchmarkAblationEstimator(b *testing.B) {
	for _, alpha := range []float64{0.5, 0.05, 0.005} {
		b.Run("alpha-"+strconv.FormatFloat(alpha, 'g', -1, 64), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				misled := AblationEstimator(Config{Seed: int64(i) + 1}, alpha)
				b.ReportMetric(misled*100, "misled-pct")
			}
		})
	}
}

// BenchmarkAblationProbeRate sweeps the probe interval: detection latency
// of an E4 route change vs measurement traffic volume.
func BenchmarkAblationProbeRate(b *testing.B) {
	for _, ival := range []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
		b.Run(ival.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := AblationProbeRate(Config{Seed: int64(i) + 1}, ival)
				b.ReportMetric(res.DetectionLatency.Seconds(), "detect-s")
				b.ReportMetric(float64(res.ProbesSent), "probes")
			}
		})
	}
}
