package experiments

import (
	"fmt"
	"testing"
	"time"
)

// e15Smoke is the CI-sized E15: an 8-site wide mesh with a short
// measurement window — small enough for the race detector, big enough
// that the greedy regime oversubscribes the scarce trunk and the solver
// has a real multi-path placement to find.
func e15Smoke(seed int64) Config {
	return Config{Seed: seed, Sites: 8, Duration: 2 * time.Second}
}

// TestE15SmokeShardInvariant extends the shard-invariance contract to
// the traffic-engineering pipeline: capacities, the demand matrix, the
// solver's placement, and both sub-runs' utilization meters are pure
// functions of (topology, seed), and every meter and flow slot is owned
// by exactly one partition, so a 1-worker and an N-worker run must
// agree bit-for-bit on the Result and both journals.
func TestE15SmokeShardInvariant(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			requirePassed(t, sameAcrossWorkers(t, E15TrafficEngineering, e15Smoke(seed), 2))
		})
	}
}
