package topo

import (
	"testing"
	"time"

	"tango/internal/control"
)

func mustTri(t *testing.T, seed int64) *MeshScenario {
	t.Helper()
	s, err := NewMeshScenario(TriConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustEdge(t *testing.T, s *MeshScenario, site, peer string) *AS {
	t.Helper()
	e := s.Edges[site+":"+peer]
	if e == nil {
		t.Fatalf("no edge %s:%s", site, peer)
	}
	return e
}

func TestTriScenarioStructure(t *testing.T) {
	s := mustTri(t, 1)
	if len(s.POPs) != 3 || len(s.Providers) != 3 || len(s.Edges) != 6 {
		t.Fatalf("structure: %d POPs, %d providers, %d edges",
			len(s.POPs), len(s.Providers), len(s.Edges))
	}
	// Heterogeneous attachment.
	if len(s.Trunk["ny"]) != 2 || len(s.Trunk["chi"]) != 3 || len(s.Trunk["la"]) != 2 {
		t.Fatalf("trunks: ny=%d chi=%d la=%d", len(s.Trunk["ny"]), len(s.Trunk["chi"]), len(s.Trunk["la"]))
	}
	if s.Trunk["ny"]["GTT"] != nil || s.Trunk["la"]["Telia"] != nil {
		t.Fatal("unexpected provider attachment")
	}
	mustEdge(t, s, "ny", "la")
}

func TestMeshConfigValidation(t *testing.T) {
	bad := TriConfig(1)
	bad.Pairs = append(bad.Pairs, MeshPair{A: "ny", B: "atlantis"})
	if _, err := NewMeshScenario(bad); err == nil {
		t.Fatal("pair with unknown site accepted")
	}
	bad = TriConfig(1)
	bad.Sites[0].Attach[0].Provider = "nope"
	if _, err := NewMeshScenario(bad); err == nil {
		t.Fatal("attachment to unknown provider accepted")
	}
	bad = TriConfig(1)
	bad.Pairs = append(bad.Pairs, bad.Pairs[0])
	if _, err := NewMeshScenario(bad); err == nil {
		t.Fatal("duplicate pair accepted")
	}
	bad = TriConfig(1)
	bad.Pairs[0].B = bad.Pairs[0].A
	if _, err := NewMeshScenario(bad); err == nil {
		t.Fatal("self-pair accepted")
	}
	bad = TriConfig(1)
	bad.Peerings = append(bad.Peerings, MeshPeering{A: "NTT", B: "nope"})
	if _, err := NewMeshScenario(bad); err == nil {
		t.Fatal("peering with unknown provider accepted")
	}
	// Two providers with one ASN used to build, the discovery labels kept
	// whichever name came last, and BGP loop detection dropped every
	// route through either.
	bad = TriConfig(1)
	bad.Providers[1].ASN = bad.Providers[0].ASN
	want := "topo: providers NTT and Telia share AS2914"
	if _, err := NewMeshScenario(bad); err == nil || err.Error() != want {
		t.Fatalf("providers sharing an ASN: %v, want %q", err, want)
	}
}

func triDiscover(t *testing.T, s *MeshScenario, a, b string) []control.DiscoveredPath {
	t.Helper()
	d := &control.Discoverer{
		Announcer: mustEdge(t, s, b, a).Speaker,
		Observer:  mustEdge(t, s, a, b).Speaker,
		Probe:     s.Probe[b+":"+a],
		POPAS:     s.POPs[b].ASN,
		NameFor:   s.ProviderName,
		RoundWait: 90 * time.Second,
	}
	var got []control.DiscoveredPath
	d.Run(func(paths []control.DiscoveredPath) { got = paths })
	s.Run(15 * time.Minute)
	return got
}

func TestTriScenarioPathDiversity(t *testing.T) {
	s := mustTri(t, 2)
	s.Run(5 * time.Minute)

	// NY<->LA share only NTT: exactly one path.
	direct := triDiscover(t, s, "ny", "la")
	if len(direct) != 1 || direct[0].ProviderName != "NTT" {
		t.Fatalf("ny->la paths = %v, want [NTT]", direct)
	}
	// NY<->CHI share NTT and Telia.
	nyChi := triDiscover(t, s, "ny", "chi")
	if len(nyChi) != 2 {
		t.Fatalf("ny->chi paths = %v", nyChi)
	}
	// CHI<->LA share NTT and GTT.
	chiLa := triDiscover(t, s, "chi", "la")
	if len(chiLa) != 2 {
		t.Fatalf("chi->la paths = %v", chiLa)
	}
	seen := map[string]bool{}
	for _, p := range append(nyChi, chiLa...) {
		seen[p.ProviderName] = true
	}
	if !seen["Telia"] || !seen["GTT"] || !seen["NTT"] {
		t.Fatalf("overlay providers = %v", seen)
	}
}

func TestTriProviderName(t *testing.T) {
	s := mustTri(t, 1)
	for name, p := range s.Providers {
		if got := s.ProviderName(p.ASN); got != name {
			t.Errorf("ProviderName(%d) = %q, want %q", p.ASN, got, name)
		}
	}
	if len(s.Providers) != 3 || s.ProviderName(9999) != "AS9999" {
		t.Fatalf("tri providers %d, ProviderName(9999) = %q", len(s.Providers), s.ProviderName(9999))
	}
}

func TestTriScenarioClockOffsets(t *testing.T) {
	s := mustTri(t, 3)
	offNY := mustEdge(t, s, "ny", "la").Node.Clock().Offset()
	offNY2 := mustEdge(t, s, "ny", "chi").Node.Clock().Offset()
	offLA := mustEdge(t, s, "la", "ny").Node.Clock().Offset()
	if offNY != offNY2 {
		t.Fatal("servers in the same site must share the site clock offset")
	}
	if offNY == offLA {
		t.Fatal("sites must have distinct clock offsets")
	}
}
