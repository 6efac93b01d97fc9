package core

import (
	"encoding/binary"
	"testing"
	"time"

	"tango/internal/topo"
)

// establishMesh deploys Tango over the three-site tri scenario with
// probing on and drives it until every pair is provisioned.
func establishMesh(t *testing.T, seed int64, cfg MeshConfig) (*topo.MeshScenario, *Mesh) {
	t.Helper()
	s, err := topo.NewMeshScenario(topo.TriConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5 * time.Minute) // base convergence
	cfg.NameFor = topo.TriProviderName
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 10 * time.Millisecond
	}
	m, err := MeshFromScenario(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Establish()
	if !m.RunUntilReady(2 * time.Hour) {
		t.Fatal("mesh did not establish within two hours of virtual time")
	}
	return s, m
}

func TestMeshEstablishesAllPairs(t *testing.T) {
	_, m := establishMesh(t, 31, MeshConfig{})

	if got := m.Sites(); len(got) != 3 || got[0] != "chi" || got[1] != "la" || got[2] != "ny" {
		t.Fatalf("sites = %v", got)
	}
	if len(m.Pairs()) != 3 {
		t.Fatalf("pairs = %d", len(m.Pairs()))
	}
	// Heterogeneous path counts per segment: ny<->la share only NTT,
	// ny<->chi share NTT+Telia, chi<->la share NTT+GTT.
	wantPaths := map[string]int{
		"ny:la": 1, "la:ny": 1,
		"ny:chi": 2, "chi:ny": 2,
		"chi:la": 2, "la:chi": 2,
	}
	for key, n := range wantPaths {
		site, peer := splitKey(key)
		mem := m.Member(site, peer)
		if mem == nil {
			t.Fatalf("member %s missing", key)
		}
		if len(mem.OutPaths) != n {
			t.Fatalf("member %s has %d paths (%v), want %d", key, len(mem.OutPaths), mem.OutPaths, n)
		}
		if len(mem.Switch.Tunnels()) != n {
			t.Fatalf("member %s has %d tunnels, want %d", key, len(mem.Switch.Tunnels()), n)
		}
	}
	if m.Member("ny", "nowhere") != nil {
		t.Fatal("unknown member not nil")
	}
}

func splitKey(key string) (string, string) {
	for i := range key {
		if key[i] == ':' {
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}

func TestMeshRoutesAndEstimates(t *testing.T) {
	_, m := establishMesh(t, 32, MeshConfig{})
	// Let probes feed every segment's monitor.
	m.eng.Run(m.eng.Now() + 2*time.Minute)

	routes := m.Routes("ny", "la")
	if len(routes) != 2 {
		t.Fatalf("ny->la routes = %v", routes)
	}
	foundDirect, foundRelay := false, false
	for _, r := range routes {
		if !r.Valid {
			t.Fatalf("route %v invalid with probes flowing", r)
		}
		if r.Direct() {
			foundDirect = true
		} else if len(r.Via) == 1 && r.Via[0] == "chi" {
			foundRelay = true
		}
	}
	if !foundDirect || !foundRelay {
		t.Fatalf("route kinds missing: %v", routes)
	}
	if _, ok := m.Best("ny", "la"); !ok {
		t.Fatal("no valid best route")
	}
	// The relayed score telescopes the two segment estimates.
	for _, r := range routes {
		if r.Direct() {
			continue
		}
		sum := m.segmentEstimate("ny", "chi").OWDMs + m.segmentEstimate("chi", "la").OWDMs
		if d := r.OWDMs - sum; d > 1e-9 || d < -1e-9 {
			t.Fatalf("relayed OWD %.3f != segment sum %.3f", r.OWDMs, sum)
		}
	}
}

func TestMeshRelayedDelivery(t *testing.T) {
	_, m := establishMesh(t, 33, MeshConfig{})
	m.eng.Run(m.eng.Now() + 30*time.Second)

	viaChi := false
	target := -1
	routes := m.Routes("ny", "la")
	for i, r := range routes {
		if !r.Direct() && len(r.Via) == 1 && r.Via[0] == "chi" {
			target, viaChi = i, true
		}
	}
	if !viaChi {
		t.Fatalf("no ny->la route via chi: %v", routes)
	}

	const dport = 9910
	delivered := 0
	m.AddSink("la", func(inner []byte) bool {
		if len(inner) >= 44 && binary.BigEndian.Uint16(inner[42:44]) == dport {
			delivered++
			return true
		}
		return false
	})

	if err := m.SendAlong(routes[target], 9909, dport, []byte("over the top")); err != nil {
		t.Fatal(err)
	}
	m.eng.Run(m.eng.Now() + time.Second)

	if delivered != 1 {
		t.Fatalf("relayed packet deliveries = %d, want 1", delivered)
	}
	if m.Relay("chi").Stats.Forwarded == 0 {
		t.Fatal("chi relay did not forward")
	}
	if m.Member("chi", "ny").Switch.Stats.Relayed == 0 {
		t.Fatal("chi's ingress member did not hand the packet to the relay")
	}

	// Direct route still delivers without touching any relay.
	forwardedBefore := m.Relay("chi").Stats.Forwarded
	for _, r := range routes {
		if r.Direct() {
			if err := m.SendAlong(r, 9909, dport, []byte("straight")); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.eng.Run(m.eng.Now() + time.Second)
	if delivered != 2 {
		t.Fatalf("direct deliveries = %d, want 2 total", delivered)
	}
	if m.Relay("chi").Stats.Forwarded != forwardedBefore {
		t.Fatal("direct route traversed the relay")
	}
}

func TestMeshConfigErrors(t *testing.T) {
	if _, err := NewMesh(MeshConfig{}); err == nil {
		t.Fatal("empty mesh accepted")
	}
	s, err := topo.NewMeshScenario(topo.TriConfig(34))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(a, b string) MeshLink {
		ka, kb := a+":"+b, b+":"+a
		return MeshLink{
			SiteA: a, SiteB: b,
			A: SiteSpec{Name: ka, Edge: mustEdgeT(t, s, a, b), POPAS: s.POPs[a].ASN,
				Block: s.Block[ka], HostPrefix: s.HostPrefix[ka], ProbePrefix: s.Probe[ka]},
			B: SiteSpec{Name: kb, Edge: mustEdgeT(t, s, b, a), POPAS: s.POPs[b].ASN,
				Block: s.Block[kb], HostPrefix: s.HostPrefix[kb], ProbePrefix: s.Probe[kb]},
		}
	}
	if _, err := NewMesh(MeshConfig{Links: []MeshLink{mk("ny", "la"), mk("la", "ny")}}); err == nil {
		t.Fatal("duplicate link accepted")
	}
	bad := mk("ny", "la")
	bad.SiteB = "ny"
	if _, err := NewMesh(MeshConfig{Links: []MeshLink{bad}}); err == nil {
		t.Fatal("self-link accepted")
	}
	s2, err := topo.NewMeshScenario(topo.TriConfig(35))
	if err != nil {
		t.Fatal(err)
	}
	cross := mk("ny", "chi")
	cross.B.Edge = mustEdgeT(t, s2, "chi", "ny")
	if _, err := NewMesh(MeshConfig{Links: []MeshLink{mk("ny", "la"), cross}}); err == nil {
		t.Fatal("cross-engine link accepted")
	}
}

func mustEdgeT(t *testing.T, s *topo.MeshScenario, site, peer string) *topo.AS {
	t.Helper()
	e, err := s.Edge(site, peer)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
