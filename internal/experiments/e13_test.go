package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// e13Smoke is the CI-sized E13: a fraction of the wide mesh with a few
// thousand concurrent flows — big enough that the wheel drains real
// batches on every partition, small enough for the race detector.
func e13Smoke(seed int64) Config {
	return Config{Seed: seed, Sites: 12, Flows: 3000, Duration: 3 * time.Second}
}

// TestE13SmokeShardInvariant extends the shard-invariance contract to
// the flow table: the per-class counters and histograms are the union
// of commuting atomic updates and every flow slot is touched by exactly
// one sending and one receiving partition, so a 1-worker and an
// N-worker run must agree bit-for-bit on the Result and the journal.
func TestE13SmokeShardInvariant(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			requirePassed(t, sameAcrossWorkers(t, E13FlowStorm, e13Smoke(seed), 2))
		})
	}
}

// TestE13TooFewFlows pins that a flow population smaller than the
// endpoint count fails the run with a reason instead of panicking.
func TestE13TooFewFlows(t *testing.T) {
	r := E13FlowStorm(Config{Seed: 1, Sites: 3, Flows: 5})
	if r.Err == "" || !strings.Contains(r.Err, "5 flows over the 6 endpoints") || r.Passed() {
		t.Fatalf("5 flows on a 3-site mesh: Err %q, passed %v", r.Err, r.Passed())
	}
}
