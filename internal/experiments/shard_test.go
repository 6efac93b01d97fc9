package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sameAcrossWorkers runs cfg at one worker and at n, fails t unless the
// two Results are deeply equal with byte-identical trace journals, and
// returns the one-worker run.
func sameAcrossWorkers(t *testing.T, run func(Config) *Result, cfg Config, n int) *Result {
	t.Helper()
	cfg.Shards = 1
	base := run(cfg)
	cfg.Shards = n
	got := run(cfg)
	if base.Trace != got.Trace {
		t.Errorf("%s trace journal diverged between 1 and %d workers", base.ID, n)
	}
	if !reflect.DeepEqual(base, got) {
		t.Errorf("%s Result diverged between 1 and %d workers:\n--- workers=1\n%s\n--- workers=%d\n%s",
			base.ID, n, renderResult(base), n, renderResult(got))
	}
	return base
}

// shardCases are the experiments the shard-invariance differential pins,
// with measurement windows short enough to keep the seed sweep brisk.
var shardCases = []struct {
	name string
	run  func(Config) *Result
	dur  time.Duration
}{
	{"E10", E10MeshOverlay, 20 * time.Second},
	{"E11", E11Failover, 5 * time.Second},
}

// TestShardInvariance is the sharded simulation's core correctness pin:
// a 1-worker run and an N-worker run of the same seeded experiment must
// produce deeply equal Results and byte-identical trace journals. The
// partition layout is a function of the topology alone, so the only
// thing N changes is goroutine interleaving — any divergence means a
// cross-partition ordering leak. Seeds cycle through N ∈ {2, 4, 8} so
// every worker count is exercised across the sweep.
func TestShardInvariance(t *testing.T) {
	counts := []int{2, 4, 8}
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for _, ex := range shardCases {
		for seed := 0; seed < seeds; seed++ {
			n := counts[seed%len(counts)]
			t.Run(fmt.Sprintf("%s/seed%d/workers%d", ex.name, seed, n), func(t *testing.T) {
				t.Parallel()
				sameAcrossWorkers(t, ex.run, Config{Seed: int64(seed), Duration: ex.dur}, n)
			})
		}
	}
}

// TestShardedE11Passes sanity-checks that a sharded run still passes the
// experiment's own claims (the differential alone would be satisfied by
// two identically wrong runs).
func TestShardedE11Passes(t *testing.T) {
	requirePassed(t, E11Failover(Config{Seed: 1, Duration: 20 * time.Second, Shards: 4}))
}

// TestE12SmokeShardInvariant runs the wide-mesh storm at a CI-sized
// fraction of the full deployment and pins the same 1-vs-N contract on
// it that TestShardInvariance pins on E10/E11: the checks must pass
// and the worker count must not leak into the Result or the journal.
func TestE12SmokeShardInvariant(t *testing.T) {
	requirePassed(t, sameAcrossWorkers(t, E12ShardedStorm, Config{Seed: 1, Sites: 12, Duration: 10 * time.Second}, 2))
}

func renderResult(r *Result) string {
	var sb strings.Builder
	r.WriteText(&sb)
	fmt.Fprintf(&sb, "virtual=%v metrics=%d trace=%dB", r.VirtualTime, len(r.Metrics), len(r.Trace))
	return sb.String()
}
