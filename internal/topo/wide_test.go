package topo

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestWideMeshConfigShape(t *testing.T) {
	cfg := WideMeshConfig(7, 64)
	if len(cfg.Providers) != 16 {
		t.Fatalf("providers: %d, want 16", len(cfg.Providers))
	}
	if len(cfg.Sites) != 64 {
		t.Fatalf("sites: %d, want 64", len(cfg.Sites))
	}
	// Ring plus chords at offsets {1,3,9,19,27}: all are below 64/2 and
	// distinct, so no dedup fires and each contributes exactly n pairs.
	if len(cfg.Pairs) != 320 {
		t.Fatalf("pairs: %d, want 320", len(cfg.Pairs))
	}
	for _, site := range cfg.Sites {
		if len(site.Attach) != 16 {
			t.Fatalf("site %s attaches to %d providers, want 16", site.Name, len(site.Attach))
		}
	}
	if cfg.EdgeBlockBase.String() != "3000::/24" {
		t.Fatalf("edge block %s, want the widened 3000::/24", cfg.EdgeBlockBase)
	}
	if !reflect.DeepEqual(cfg.Pairs, WideMeshConfig(7, 64).Pairs) {
		t.Fatal("same seed must reproduce the same pair list")
	}
}

func TestWideMeshConfigSmallRingDedups(t *testing.T) {
	// At n=6 only offsets 1 (6 pairs) and... 3 >= (6+1)/2 is skipped, so
	// the ring alone survives: 6 unique pairs, no duplicates.
	cfg := WideMeshConfig(1, 6)
	if len(cfg.Pairs) != 6 {
		t.Fatalf("6-site ring: %d pairs, want 6", len(cfg.Pairs))
	}
	seen := map[[2]string]bool{}
	for _, p := range cfg.Pairs {
		key := [2]string{min(p.A, p.B), max(p.A, p.B)}
		if seen[key] {
			t.Fatalf("duplicate pair %s<->%s", p.A, p.B)
		}
		seen[key] = true
	}
	// n=8: offset 3 < 4.5 joins, contributing 8 more unique chords.
	if got := len(WideMeshConfig(1, 8).Pairs); got != 16 {
		t.Fatalf("8-site ring+chord3: %d pairs, want 16", got)
	}
}

func TestWideMeshPartitionsSitePerShard(t *testing.T) {
	// Every radial floor is ≥ 8 ms (scale ≥ 1.0 halves to a 4 ms one-way
	// minimum), above the 1 ms cut floor: the partitioner must keep every
	// site and provider separate and derive the 4 ms lookahead.
	n := 10
	p := MeshPartition(WideMeshConfig(3, n))
	if p.Parts != n+16 {
		t.Fatalf("partitions: %d, want %d (sites+providers)", p.Parts, n+16)
	}
	if p.Lookahead != 4*time.Millisecond {
		t.Fatalf("lookahead: %v, want 4ms", p.Lookahead)
	}
}

// TestWideMeshEdgeASNsStayPrivate: at 84 sites the wide mesh deploys 840
// edges, and default numbering from 64701 would pass 65534. The build
// must refuse, naming the pair, instead of wrapping the ASN to 0-4,
// which POPs do not strip as private.
func TestWideMeshEdgeASNsStayPrivate(t *testing.T) {
	_, err := NewMeshScenario(WideMeshConfig(1, 84))
	if err == nil || !strings.Contains(err.Error(), "pair s") || !strings.Contains(err.Error(), "65535") {
		t.Fatalf("84-site wide mesh: err = %v, want one naming the pair whose default edge ASN passes 65534", err)
	}
	// 83 sites deploy 830 edges, the last at 65530.
	if _, err := NewMeshScenario(WideMeshConfig(1, 83)); err != nil {
		t.Fatalf("83-site wide mesh: %v", err)
	}
}
