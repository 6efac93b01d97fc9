package experiments

import (
	"fmt"
	"reflect"
	"testing"
)

// e14Smoke is the CI-scale configuration: a ~34-AS generated internet
// with 8 swept pairs, the same shape the race job's smoke step runs.
func e14Smoke(seed int64, workers int) *Result {
	return E14DiscoverySweep(Config{Seed: seed, Sites: 16, Shards: workers})
}

func TestE14Smoke(t *testing.T) {
	requirePassed(t, e14Smoke(1, 2))
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
			base := e14Smoke(seed, 1)
			requirePassed(t, base)
			got := e14Smoke(seed, 4)
			if base.Trace != got.Trace {
				t.Fatal("merged trace journal differs between 1 and 4 workers")
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatal("Results differ between 1 and 4 workers")
			}
		})
	}
}
