package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"tango/internal/bgp"
	"tango/internal/control"
	"tango/internal/topo"
)

// e14Smoke is the CI-scale configuration: a ~34-AS generated internet
// with 8 swept pairs, the same shape the race job's smoke step runs.
func e14Smoke(seed int64) Config { return Config{Seed: seed, Sites: 16} }

func TestE14Smoke(t *testing.T) {
	requirePassed(t, E14DiscoverySweep(e14Smoke(1)))
}

// TestE14TooFewSites: a scale too small to draw the swept pairs from is
// an error, not an endless draw. Pairs are unordered, so 3 sites give 3
// of the 4 a smoke sweeps. The run gets a deadline so a hang fails the
// test instead of the suite.
func TestE14TooFewSites(t *testing.T) {
	for _, sites := range []int{1, 2, 3, -1} {
		done := make(chan *Result, 1)
		go func() { done <- E14DiscoverySweep(Config{Seed: 1, Sites: sites}) }()
		select {
		case r := <-done:
			if !strings.Contains(r.Err, "distinct unordered site pairs") || r.Passed() {
				t.Fatalf("Sites %d: Err %q, passed %v", sites, r.Err, r.Passed())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Sites %d: E14 still running after 10 s", sites)
		}
	}
}

// TestE14Seeds pins one smoke run per seed, so a change to the sweep's
// event order shows as a moved digest at five seeds, not one.
func TestE14Seeds(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			requirePassed(t, E14DiscoverySweep(e14Smoke(seed)))
		})
	}
}

// TestE14TraceInTimeOrder: every pair's discovery runs on one network and
// records into one journal, so the trace reads in virtual-time order.
func TestE14TraceInTimeOrder(t *testing.T) {
	r := E14DiscoverySweep(e14Smoke(2))
	var recs []struct {
		At int64 `json:"at_ns"`
	}
	if err := json.Unmarshal([]byte(r.Trace), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("E14 journaled no discovery rounds")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatalf("trace record %d at %d ns follows one at %d ns", i, recs[i].At, recs[i-1].At)
		}
	}
}

// TestE14ScoreLeakedPrivateASN: an edge's private ASN on an observed path
// leaked past the POP that should strip it. The edge is on the recorded
// graph, so the walk alone accepts the path; scorePair must not.
func TestE14ScoreLeakedPrivateASN(t *testing.T) {
	m, err := topo.NewMeshScenario(topo.VultrConfig(topo.ScenarioConfig{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	g := &m.B.Graph
	observer, src, dst := m.Edges["ny:la"].Index, m.POPs["ny"].Index, m.POPs["la"].Index
	clean := bgp.Path{bgp.ASVultr, bgp.ASNTT, bgp.ASVultr}
	leaked := append(clean, topo.ASEdgeLA)
	if !g.ValleyFreeObserved(observer, leaked) {
		t.Fatal("the walk rejects the leaked path; the test no longer isolates scorePair's own check")
	}
	for _, c := range []struct {
		path bgp.Path
		want bool
	}{{clean, true}, {leaked, false}} {
		p := scorePair(g, observer, src, dst, []control.DiscoveredPath{{Path: c.path, ProviderASN: bgp.ASNTT}})
		if p.valleyFree != c.want || !p.phantomFree {
			t.Errorf("path [%v]: valley-free %v, phantom-free %v; want %v, true", c.path, p.valleyFree, p.phantomFree, c.want)
		}
	}
}
