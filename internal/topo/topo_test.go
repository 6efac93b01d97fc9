package topo

import (
	"testing"
	"time"

	"tango/internal/bgp"
	"tango/internal/control"
	"tango/internal/packet"
	"tango/internal/simnet"
)

func converge(s *Scenario) { s.Run(5 * time.Minute) }

func mustVultr(t *testing.T, cfg ScenarioConfig) *Scenario {
	t.Helper()
	s, err := NewVultrScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScenarioConverges(t *testing.T) {
	s := mustVultr(t, ScenarioConfig{Seed: 1})
	converge(s)

	// Each edge learns the other's host prefix.
	bestAtLA, ok := s.Edges["la:ny"].Speaker.Best(s.HostPrefix["ny:la"])
	if !ok {
		t.Fatal("LA edge has no route to NY host prefix")
	}
	bestAtNY, ok := s.Edges["ny:la"].Speaker.Best(s.HostPrefix["la:ny"])
	if !ok {
		t.Fatal("NY edge has no route to LA host prefix")
	}
	// The default path runs through NTT (Vultr's most-preferred
	// transit), as in the paper.
	if got := deliveredBy(s, bestAtLA.Path); got != "NTT" {
		t.Fatalf("LA default path via %s (path %v), want NTT", got, bestAtLA.Path)
	}
	if got := deliveredBy(s, bestAtNY.Path); got != "NTT" {
		t.Fatalf("NY default path via %s (path %v), want NTT", got, bestAtNY.Path)
	}
	// Full AS path shape: [20473 2914 20473] after private-ASN strip.
	want := bgp.Path{bgp.ASVultr, bgp.ASNTT, bgp.ASVultr}
	if !bestAtLA.Path.Equal(want) {
		t.Fatalf("path = %v, want %v", bestAtLA.Path, want)
	}
}

func TestScenarioDataPlaneDefaultPath(t *testing.T) {
	s := mustVultr(t, ScenarioConfig{Seed: 2})
	converge(s)

	// Send a packet from the NY edge to an address in LA's host
	// prefix; it must arrive via NTT with roughly the NTT one-way
	// delay.
	dst, err := s.HostPrefix["la:ny"].Host(1)
	if err != nil {
		t.Fatal(err)
	}
	s.Edges["la:ny"].Node.AddAddr(dst)
	var arrived simnet.NodeStats
	_ = arrived
	gotAt := time.Duration(-1)
	start := s.B.W.Now()
	s.Edges["la:ny"].Node.SetHandler(func(data []byte) {
		gotAt = time.Duration(s.B.W.Now() - start)
	})

	buf := packet.NewSerializeBuffer()
	pay := packet.Payload([]byte("baseline"))
	udp := &packet.UDP{SrcPort: 1, DstPort: 2}
	src, _ := s.HostPrefix["ny:la"].Host(1)
	ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
	if err := packet.SerializeLayers(buf, ip, udp, &pay); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, buf.Len())
	copy(raw, buf.Bytes())
	s.Edges["ny:la"].Node.Inject(raw)
	s.Run(time.Second)

	if gotAt < 0 {
		t.Fatal("packet did not arrive")
	}
	// NTT trunk ~36.6ms plus sub-ms access/DC links.
	if gotAt < 36*time.Millisecond || gotAt > 38*time.Millisecond {
		t.Fatalf("NY->LA delay via default = %v, want ~36.7ms (NTT)", gotAt)
	}
	// NTT transited the packet.
	var tx uint64
	for _, p := range s.Providers["NTT"].Node.Ports() {
		tx += p.Out().Stats.Tx
	}
	if tx == 0 {
		t.Fatal("NTT did not forward the packet")
	}
}

func TestScenarioSuppressionExposesAlternatePaths(t *testing.T) {
	s := mustVultr(t, ScenarioConfig{Seed: 3})
	converge(s)

	probe := s.Probe["ny:la"]
	// NY announces; LA observes — this is one round of the discovery
	// loop done by hand, for each successive suppression set.
	steps := []struct {
		suppress []bgp.Community
		want     string
	}{
		{nil, "NTT"},
		{[]bgp.Community{bgp.NoExportTo(bgp.ASNTT)}, "Telia"},
		{[]bgp.Community{bgp.NoExportTo(bgp.ASNTT), bgp.NoExportTo(bgp.ASTelia)}, "GTT"},
		{[]bgp.Community{bgp.NoExportTo(bgp.ASNTT), bgp.NoExportTo(bgp.ASTelia), bgp.NoExportTo(bgp.ASGTT)}, "Cogent"},
	}
	for _, step := range steps {
		s.Edges["ny:la"].Speaker.Originate(probe, step.suppress...)
		s.Run(3 * time.Minute)
		best, ok := s.Edges["la:ny"].Speaker.Best(probe)
		if !ok {
			t.Fatalf("no route with suppression %v", step.suppress)
		}
		if got := deliveredBy(s, best.Path); got != step.want {
			t.Fatalf("suppression %v -> path via %s (%v), want %s",
				step.suppress, got, best.Path, step.want)
		}
	}

	// Suppressing all four kills reachability (termination condition).
	s.Edges["ny:la"].Speaker.Originate(probe,
		bgp.NoExportTo(bgp.ASNTT), bgp.NoExportTo(bgp.ASTelia),
		bgp.NoExportTo(bgp.ASGTT), bgp.NoExportTo(bgp.ASCogent))
	s.Run(3 * time.Minute)
	if best, ok := s.Edges["la:ny"].Speaker.Best(probe); ok {
		t.Fatalf("still reachable via %v with all transits suppressed", best.Path)
	}
}

func TestScenarioReversePathsIncludeLevel3(t *testing.T) {
	s := mustVultr(t, ScenarioConfig{Seed: 4})
	converge(s)

	probe := s.Probe["la:ny"]
	s.Edges["la:ny"].Speaker.Originate(probe,
		bgp.NoExportTo(bgp.ASNTT), bgp.NoExportTo(bgp.ASTelia), bgp.NoExportTo(bgp.ASGTT))
	s.Run(3 * time.Minute)
	best, ok := s.Edges["ny:la"].Speaker.Best(probe)
	if !ok {
		t.Fatal("no route with NTT/Telia/GTT suppressed")
	}
	if got := deliveredBy(s, best.Path); got != "Level3" {
		t.Fatalf("NY->LA 4th path via %s (%v), want Level3", got, best.Path)
	}
}

func TestScenarioClockOffsets(t *testing.T) {
	s := mustVultr(t, ScenarioConfig{Seed: 5})
	offNY := s.Edges["ny:la"].Node.Clock().Offset()
	offLA := s.Edges["la:ny"].Node.Clock().Offset()
	if offNY == offLA {
		t.Fatal("edge clocks are synchronized; scenario must model skew")
	}
	s2 := mustVultr(t, ScenarioConfig{Seed: 5, ClockOffsetNY: time.Second, ClockOffsetLA: 2 * time.Second})
	if s2.Edges["ny:la"].Node.Clock().Offset() != time.Second {
		t.Fatal("clock offset override ignored")
	}
}

// deliveredBy names the provider that hands path into its destination's
// Vultr POP, the way discovery labels it; "direct" when no provider does.
func deliveredBy(s *Scenario, path bgp.Path) string {
	asn, ok := control.AdjacentProvider(path, bgp.ASVultr)
	if !ok {
		return "direct"
	}
	return s.ProviderName(asn)
}

func TestProviderNameForPath(t *testing.T) {
	s := mustVultr(t, ScenarioConfig{Seed: 1})
	cases := []struct {
		path bgp.Path
		want string
	}{
		{bgp.Path{bgp.ASVultr, bgp.ASNTT, bgp.ASVultr}, "NTT"},
		{bgp.Path{bgp.ASVultr, bgp.ASNTT, bgp.ASCogent, bgp.ASVultr}, "Cogent"},
		{bgp.Path{bgp.ASGTT, bgp.ASVultr}, "GTT"},
		{bgp.Path{bgp.ASVultr, bgp.ASLevel3, bgp.ASVultr}, "Level3"},
		{bgp.Path{bgp.ASVultr, 9999, bgp.ASVultr}, "AS9999"},
		{bgp.Path{}, "direct"},
	}
	for _, c := range cases {
		if got := deliveredBy(s, c.path); got != c.want {
			t.Fatalf("deliveredBy(%v) = %s, want %s", c.path, got, c.want)
		}
	}
}

func TestProviderName(t *testing.T) {
	custom := RadialMeshConfig(1,
		[]RadialProvider{{Name: "Zayo", ASN: 6461, Scale: 1}, {Name: "Lumen", ASN: 3356, Scale: 1.2}},
		[]RadialSite{{Name: "a", Radius: 5 * time.Millisecond, Providers: []string{"Zayo", "Lumen"}},
			{Name: "b", Radius: 7 * time.Millisecond, Providers: []string{"Zayo"}}},
		[][2]string{{"a", "b"}})
	for _, tc := range []struct {
		name string
		cfg  MeshConfig
		want map[bgp.ASN]string
	}{
		{"vultr", VultrConfig(ScenarioConfig{Seed: 1}), map[bgp.ASN]string{
			bgp.ASNTT: "NTT", bgp.ASTelia: "Telia", bgp.ASGTT: "GTT", bgp.ASCogent: "Cogent", bgp.ASLevel3: "Level3"}},
		{"tri", TriConfig(1), map[bgp.ASN]string{bgp.ASNTT: "NTT", bgp.ASTelia: "Telia", bgp.ASGTT: "GTT"}},
		{"wide", WideMeshConfig(1, 6), map[bgp.ASN]string{60001: "P00", 60016: "P15"}},
		{"custom", custom, map[bgp.ASN]string{6461: "Zayo", 3356: "Lumen"}},
	} {
		s, err := NewMeshScenario(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Neither a POP's AS nor an AS the scenario lacks is a provider.
		tc.want[bgp.ASVultr] = "AS20473"
		tc.want[9999] = "AS9999"
		for asn, want := range tc.want {
			if got := s.ProviderName(asn); got != want {
				t.Errorf("%s: ProviderName(%d) = %q, want %q", tc.name, asn, got, want)
			}
		}
	}
}

func TestTrunkHandles(t *testing.T) {
	s := mustVultr(t, ScenarioConfig{Seed: 6})
	for _, name := range []string{"NTT", "Telia", "GTT", "Level3"} {
		if s.Trunk["la"][name] == nil {
			t.Fatalf("Trunk[la][%s] missing", name)
		}
	}
	for _, name := range []string{"NTT", "Telia", "GTT", "Cogent"} {
		if s.Trunk["ny"][name] == nil {
			t.Fatalf("Trunk[ny][%s] missing", name)
		}
	}
	// The shapers must actually steer the right direction: raise GTT's
	// NY->LA trunk and verify a NY->LA packet over GTT slows down.
	s.Trunk["la"]["GTT"].Shaper().SetOffset(100 * time.Millisecond)
	if s.Trunk["la"]["GTT"].Shaper().Offset() != 100*time.Millisecond {
		t.Fatal("shaper offset not applied")
	}
}

// TestMeshAllowOwnASDerived: a POP turns allowas-in on for its transit
// sessions exactly when another site shares its ASN. Two sites behind
// one provider, with one POP ASN, reach each other's host prefix although
// the route arrives with that ASN already in its path. With two POP ASNs,
// loop prevention still holds: a host prefix poisoned with the other
// POP's ASN stops at the provider.
func TestMeshAllowOwnASDerived(t *testing.T) {
	build := func(asnA, asnB bgp.ASN) *MeshScenario {
		t.Helper()
		site := func(name string, asn bgp.ASN) MeshSite {
			return MeshSite{Name: name, POPASN: asn, Attach: []MeshAttachment{{Provider: "P"}}}
		}
		m, err := NewMeshScenario(MeshConfig{
			Seed:      1,
			Providers: []MeshProvider{{Name: "P", ASN: 100}},
			Sites:     []MeshSite{site("a", asnA), site("b", asnB)},
			Pairs:     []MeshPair{{A: "a", B: "b"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	m := build(200, 200)
	m.Run(time.Minute)
	for _, k := range [][2]string{{"a:b", "b:a"}, {"b:a", "a:b"}} {
		best, ok := m.Edges[k[0]].Speaker.Best(m.HostPrefix[k[1]])
		if !ok || !best.Path.Equal(bgp.Path{200, 100, 200}) {
			t.Fatalf("shared POP ASN: edge %s has route %v to %s's host prefix, want path [200 100 200]", k[0], best, k[1])
		}
	}

	m = build(200, 201)
	host := m.HostPrefix["a:b"]
	m.Edges["a:b"].Speaker.OriginateWithPath(host, bgp.Path{201})
	m.Run(time.Minute)
	if _, ok := m.Providers["P"].Speaker.Best(host); !ok {
		t.Fatal("distinct POP ASNs: the provider has no route to a's host prefix")
	}
	if best, ok := m.POPs["b"].Speaker.Best(host); ok {
		t.Fatalf("distinct POP ASNs: POP b accepted a path with its own ASN: %v", best)
	}
}
