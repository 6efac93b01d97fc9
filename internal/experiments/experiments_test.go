package experiments

import (
	"strings"
	"testing"
	"time"
)

// The experiment drivers are exercised at reduced duration; the claims
// they check are statistical, so the windows below stay large enough for
// the checks to be meaningful while keeping the suite fast.

func requirePassed(t *testing.T, r *Result) {
	t.Helper()
	var b strings.Builder
	r.WriteText(&b)
	if !r.Passed() {
		t.Fatalf("experiment failed:\n%s", b.String())
	}
	t.Logf("\n%s", b.String())
	pinDigest(t, r)
}

func TestE1(t *testing.T) {
	requirePassed(t, E1PathDiscovery(Config{Seed: 1}))
}

func TestE2(t *testing.T) {
	requirePassed(t, E2OWDComparison(Config{Seed: 1, Duration: 10 * time.Minute}))
}

func TestE3(t *testing.T) {
	requirePassed(t, E3Jitter(Config{Seed: 1, Duration: 10 * time.Minute}))
}

func TestE4(t *testing.T) {
	requirePassed(t, E4RouteChange(Config{Seed: 1, Duration: 6 * time.Minute}))
}

func TestE5(t *testing.T) {
	requirePassed(t, E5Instability(Config{Seed: 1, Duration: 5 * time.Minute}))
}

func TestE6(t *testing.T) {
	requirePassed(t, E6InOrderImpact(Config{Seed: 1, Duration: 2 * time.Minute}))
}

func TestE7(t *testing.T) {
	requirePassed(t, E7MeasurementSoundness(Config{Seed: 1, Duration: 3 * time.Minute}))
}

func TestE8(t *testing.T) {
	requirePassed(t, E8DataPlaneCost(Config{Seed: 1}))
}

func TestE9(t *testing.T) {
	requirePassed(t, E9LossReorder(Config{Seed: 1, Duration: 2 * time.Minute}))
}

func TestE10(t *testing.T) {
	requirePassed(t, E10MeshOverlay(Config{Seed: 1, Duration: 90 * time.Second}))
}

func TestResultRendering(t *testing.T) {
	r := newResult("EX", "rendering")
	r.Rows = [][]string{{"a", "b"}, {"1", "2"}}
	r.check("some check", "paper says", true, "measured %d", 42)
	r.check("failing check", "paper says", false, "nope")
	r.note("a note")
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{"== EX", "PASS", "FAIL", "measured: measured 42", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if r.Passed() {
		t.Fatal("Passed with failing check")
	}
}
