package experiments

import (
	"fmt"
	"testing"
)

// e14Smoke is the CI-scale configuration: a ~34-AS generated internet
// with 8 swept pairs, the same shape the race job's smoke step runs.
func e14Smoke(seed int64) Config { return Config{Seed: seed, Sites: 16} }

func TestE14Smoke(t *testing.T) {
	cfg := e14Smoke(1)
	cfg.Shards = 2
	requirePassed(t, E14DiscoverySweep(cfg))
}

// TestE14SweepWorkerInvariance is the sweep driver's differential test:
// serial (one worker) and RunJobs-parallel discovery over the same pair
// set must produce deeply equal Results and byte-identical merged trace
// journals — across at least 5 seeds, under -race in CI.
func TestE14SweepWorkerInvariance(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			requirePassed(t, sameAcrossWorkers(t, E14DiscoverySweep, e14Smoke(seed), 4))
		})
	}
}
