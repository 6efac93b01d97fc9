package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// e14Smoke is the CI-scale configuration: a ~34-AS generated internet
// with 8 swept pairs, the same shape the race job's smoke step runs.
func e14Smoke(seed int64) Config { return Config{Seed: seed, Sites: 16} }

func TestE14Smoke(t *testing.T) {
	cfg := e14Smoke(1)
	cfg.Shards = 2
	requirePassed(t, E14DiscoverySweep(cfg))
}

// TestE14TooFewSites: a scale too small to draw the swept pairs from is
// an error, not an endless draw. The run gets a deadline so a hang fails
// the test instead of the suite.
func TestE14TooFewSites(t *testing.T) {
	for _, sites := range []int{1, 2, -1} {
		done := make(chan *Result, 1)
		go func() { done <- E14DiscoverySweep(Config{Seed: 1, Sites: sites}) }()
		select {
		case r := <-done:
			if !strings.Contains(r.Err, "distinct ordered site pairs") || r.Passed() {
				t.Fatalf("Sites %d: Err %q, passed %v", sites, r.Err, r.Passed())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Sites %d: E14 still running after 10 s", sites)
		}
	}
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
