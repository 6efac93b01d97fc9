package topo

import (
	"testing"
	"time"

	"tango/internal/sim"
	"tango/internal/simnet"
)

func TestPartitionGraphEmpty(t *testing.T) {
	p := PartitionGraph(nil, nil)
	if p.Parts != 0 || len(p.Part) != 0 || p.Lookahead != 0 {
		t.Fatalf("empty graph: got %+v", p)
	}
	if mp := MeshPartition(MeshConfig{}); mp.Parts != 0 || mp.Lookahead != 0 {
		t.Fatalf("empty mesh: got %+v", mp)
	}
	// Disconnected nodes are one partition each, in node order, with no
	// cross edge to bound the epoch.
	p = PartitionGraph([]string{"a", "b", "c"}, nil)
	if p.Parts != 3 || p.Part["a"] != 0 || p.Part["c"] != 2 || p.Lookahead != 0 {
		t.Fatalf("edgeless graph: got %+v", p)
	}
}

func TestPartitionSingleSiteMergesWithFastAccess(t *testing.T) {
	// A lone site whose access link is faster than the cut floor shares a
	// partition with its provider: there is nothing to parallelize, and
	// the lookahead stays zero.
	cfg := MeshConfig{
		Providers: []MeshProvider{{Name: "P", ASN: 100}},
		Sites: []MeshSite{{
			Name:   "solo",
			POPASN: 200,
			Attach: []MeshAttachment{{
				Provider: "P",
				Access:   fastModel{},
				Trunk:    fastModel{},
			}},
		}},
	}
	p := MeshPartition(cfg)
	if p.Parts != 1 {
		t.Fatalf("single fast-linked site: want 1 partition, got %d", p.Parts)
	}
	if p.Lookahead != 0 {
		t.Fatalf("single partition has no cross edges: want lookahead 0, got %v", p.Lookahead)
	}
}

// fastModel is a delay model with a declared sub-cut-floor minimum.
type fastModel struct{}

func (fastModel) Sample(sim.Time, *sim.RNG) time.Duration { return 50 * time.Microsecond }
func (fastModel) MinDelay() time.Duration                 { return 50 * time.Microsecond }

var _ simnet.MinDelayer = fastModel{}

func TestPartitionMoreShardsThanNodesClamps(t *testing.T) {
	// Shards is a worker count, not a layout input: asking for more
	// workers than partitions exist (the coordinator clamps them, see
	// sim's TestCoordinatorAccessors) changes nothing about the layout.
	cfg := TriConfig(7)
	want := MeshPartition(MeshConfig{
		Providers: cfg.Providers,
		Sites:     cfg.Sites,
		Pairs:     cfg.Pairs,
		Peerings:  cfg.Peerings,
	})
	cfg.Shards = 999
	s, err := NewMeshScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Layout.Parts != want.Parts || s.B.W.Coord().NumParts() != want.Parts {
		t.Fatalf("worker count changed the layout: %d parts (%d engines) vs %d",
			s.Layout.Parts, s.B.W.Coord().NumParts(), want.Parts)
	}
	for n, part := range want.Part {
		if s.Layout.Part[n] != part {
			t.Fatalf("node %s moved: partition %d vs %d", n, s.Layout.Part[n], part)
		}
	}
}

func TestPartitionLookaheadAsymmetricDelays(t *testing.T) {
	// The lookahead must be the minimum over BOTH directions of every
	// cut edge: an epoch bounds when any cross event can land, and the
	// faster direction is the binding one.
	nodes := []string{"a", "b", "c"}
	edges := []PartEdge{
		{A: "a", B: "b", MinDelayAB: 9 * time.Millisecond, MinDelayBA: 3 * time.Millisecond},
		{A: "b", B: "c", MinDelayAB: 5 * time.Millisecond, MinDelayBA: 20 * time.Millisecond},
	}
	p := PartitionGraph(nodes, edges)
	if p.Parts != 3 {
		t.Fatalf("want 3 partitions, got %d", p.Parts)
	}
	if p.Lookahead != 3*time.Millisecond {
		t.Fatalf("lookahead: want 3ms (min of 9/3/5/20), got %v", p.Lookahead)
	}

	// Reversing an edge's direction fields must not change the answer.
	edges[0].MinDelayAB, edges[0].MinDelayBA = edges[0].MinDelayBA, edges[0].MinDelayAB
	if q := PartitionGraph(nodes, edges); q.Lookahead != 3*time.Millisecond {
		t.Fatalf("lookahead after swap: want 3ms, got %v", q.Lookahead)
	}
}

func TestPartitionSubFloorEdgeNeverCut(t *testing.T) {
	// An edge faster than the cut floor glues its endpoints into one
	// cluster even when one direction is slow: conservative sync at that
	// cadence would be useless.
	nodes := []string{"a", "b", "c"}
	edges := []PartEdge{
		{A: "a", B: "b", MinDelayAB: 100 * time.Microsecond, MinDelayBA: 30 * time.Millisecond},
		{A: "b", B: "c", MinDelayAB: 2 * time.Millisecond, MinDelayBA: 2 * time.Millisecond},
	}
	p := PartitionGraph(nodes, edges)
	if p.Parts != 2 {
		t.Fatalf("want 2 partitions (a+b merged), got %d", p.Parts)
	}
	if p.Part["a"] != p.Part["b"] {
		t.Fatal("sub-floor edge a-b was cut")
	}
	if p.Lookahead != 2*time.Millisecond {
		t.Fatalf("lookahead: want 2ms, got %v", p.Lookahead)
	}
}
