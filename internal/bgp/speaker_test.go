package bgp

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/sim"
)

const msDelay = 20 * time.Millisecond

func v6(s string) netip.Addr { return netip.MustParseAddr(s) }

// pairCfg builds matching session configs with the given relations.
func pairCfg(relA Relation, la, lb string) (SessionConfig, SessionConfig) {
	var relB Relation
	switch relA {
	case RelCustomer:
		relB = RelProvider
	case RelProvider:
		relB = RelCustomer
	default:
		relB = RelPeer
	}
	return SessionConfig{Relation: relA, LocalAddr: v6(la), Delay: msDelay},
		SessionConfig{Relation: relB, LocalAddr: v6(lb), Delay: msDelay}
}

func TestSessionEstablishAndPropagate(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, "edge", 64512, 1)
	b := NewSpeaker(eng, "vultr", uint16OK(ASVultr), 2)
	cfgA, cfgB := pairCfg(RelProvider, "2001:db8:f::1", "2001:db8:f::2")
	sa, sb := Connect(a, b, cfgA, cfgB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	a.Originate(pfx)
	eng.Run(5 * time.Second)

	best := b.Best(pfx)
	if best == nil {
		t.Fatal("route did not propagate")
	}
	if !best.Path.Equal(Path{64512}) {
		t.Fatalf("path = %v", best.Path)
	}
	if best.NextHop != v6("2001:db8:f::1") {
		t.Fatalf("nexthop = %v", best.NextHop)
	}
	if r, ok := sb.AdjIn(pfx); !ok || r != best {
		t.Fatal("AdjIn inconsistent with Loc-RIB")
	}
	if sa.AdjInLen() != 0 {
		t.Fatal("split horizon violated: route echoed back")
	}
}

func uint16OK(a ASN) ASN { return a }

// chain builds edge(private) -> vultr -> transit -> remote-vultr ->
// remote-edge and returns the speakers.
func chain(eng *sim.Engine) (edge, vultr, transit, rvultr, redge *Speaker) {
	edge = NewSpeaker(eng, "edge", 64512, 1)
	vultr = NewSpeaker(eng, "vultr", ASVultr, 2)
	transit = NewSpeaker(eng, "ntt", ASNTT, 3)
	rvultr = NewSpeaker(eng, "vultr2", 20474, 4) // distinct AS for the remote DC side
	redge = NewSpeaker(eng, "edge2", 64513, 5)

	cA, cB := pairCfg(RelProvider, "2001:db8:10::1", "2001:db8:10::2")
	Connect(edge, vultr, cA, cB)
	cA, cB = pairCfg(RelProvider, "2001:db8:11::1", "2001:db8:11::2")
	cB.StripPrivateASNs = false
	Connect(vultr, transit, cA, cB)
	cA, cB = pairCfg(RelCustomer, "2001:db8:12::1", "2001:db8:12::2")
	Connect(transit, rvultr, cA, cB)
	cA, cB = pairCfg(RelCustomer, "2001:db8:13::1", "2001:db8:13::2")
	Connect(rvultr, redge, cA, cB)
	return
}

func TestPathAccumulationAcrossChain(t *testing.T) {
	eng := sim.NewEngine()
	edge, _, _, _, redge := chain(eng)
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	edge.Originate(pfx)
	eng.Run(10 * time.Second)

	best := redge.Best(pfx)
	if best == nil {
		t.Fatal("route did not cross the chain")
	}
	want := Path{20474, ASNTT, ASVultr, 64512}
	if !best.Path.Equal(want) {
		t.Fatalf("path = %v, want %v", best.Path, want)
	}
}

func TestStripPrivateASN(t *testing.T) {
	eng := sim.NewEngine()
	edge := NewSpeaker(eng, "edge", 64512, 1)
	vultr := NewSpeaker(eng, "vultr", ASVultr, 2)
	ntt := NewSpeaker(eng, "ntt", ASNTT, 3)
	cA, cB := pairCfg(RelProvider, "2001:db8:10::1", "2001:db8:10::2")
	Connect(edge, vultr, cA, cB)
	cA, cB = pairCfg(RelProvider, "2001:db8:11::1", "2001:db8:11::2")
	cA.StripPrivateASNs = true // vultr strips when exporting to its transit
	Connect(vultr, ntt, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	edge.Originate(pfx)
	eng.Run(10 * time.Second)

	best := ntt.Best(pfx)
	if best == nil {
		t.Fatal("no route at transit")
	}
	if !best.Path.Equal(Path{ASVultr}) {
		t.Fatalf("path = %v, want [20473] (private ASN stripped)", best.Path)
	}
}

func TestGaoRexfordValleyFree(t *testing.T) {
	// transit1 -> vultr <- transit2: a route learned from provider
	// transit1 must NOT be exported to provider transit2.
	eng := sim.NewEngine()
	vultr := NewSpeaker(eng, "vultr", ASVultr, 1)
	t1 := NewSpeaker(eng, "ntt", ASNTT, 2)
	t2 := NewSpeaker(eng, "gtt", ASGTT, 3)
	cA, cB := pairCfg(RelProvider, "2001:db8:10::1", "2001:db8:10::2")
	Connect(vultr, t1, cA, cB)
	cA, cB = pairCfg(RelProvider, "2001:db8:11::1", "2001:db8:11::2")
	Connect(vultr, t2, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	t1.Originate(pfx)
	eng.Run(10 * time.Second)

	if vultr.Best(pfx) == nil {
		t.Fatal("customer did not learn provider route")
	}
	if t2.Best(pfx) != nil {
		t.Fatal("valley: provider route leaked to another provider")
	}

	// But a customer route IS exported to providers.
	pfx2 := addr.MustParsePrefix("2001:db8:2::/48")
	vultr.Originate(pfx2)
	eng.Run(20 * time.Second)
	if t1.Best(pfx2) == nil || t2.Best(pfx2) == nil {
		t.Fatal("origin route not exported to providers")
	}
}

func TestPeerToPeerNoTransit(t *testing.T) {
	// a --peer-- b --peer-- c: a's route must reach b but not c.
	eng := sim.NewEngine()
	a := NewSpeaker(eng, "a", 100, 1)
	b := NewSpeaker(eng, "b", 200, 2)
	c := NewSpeaker(eng, "c", 300, 3)
	cA, cB := pairCfg(RelPeer, "2001:db8:10::1", "2001:db8:10::2")
	Connect(a, b, cA, cB)
	cA, cB = pairCfg(RelPeer, "2001:db8:11::1", "2001:db8:11::2")
	Connect(b, c, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	a.Originate(pfx)
	eng.Run(10 * time.Second)
	if b.Best(pfx) == nil {
		t.Fatal("peer route not learned")
	}
	if c.Best(pfx) != nil {
		t.Fatal("peer route transited")
	}
}

func TestNoExportToCommunity(t *testing.T) {
	// edge announces via vultr with NoExportTo(NTT): NTT must not hear
	// it, GTT must.
	eng := sim.NewEngine()
	edge := NewSpeaker(eng, "edge", 64512, 1)
	vultr := NewSpeaker(eng, "vultr", ASVultr, 2)
	ntt := NewSpeaker(eng, "ntt", ASNTT, 3)
	gtt := NewSpeaker(eng, "gtt", ASGTT, 4)
	cA, cB := pairCfg(RelProvider, "2001:db8:10::1", "2001:db8:10::2")
	Connect(edge, vultr, cA, cB)
	cA, cB = pairCfg(RelProvider, "2001:db8:11::1", "2001:db8:11::2")
	Connect(vultr, ntt, cA, cB)
	cA, cB = pairCfg(RelProvider, "2001:db8:12::1", "2001:db8:12::2")
	Connect(vultr, gtt, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	edge.Originate(pfx, NoExportTo(ASNTT))
	eng.Run(10 * time.Second)

	if ntt.Best(pfx) != nil {
		t.Fatal("NoExportTo(NTT) did not suppress export to NTT")
	}
	if gtt.Best(pfx) == nil {
		t.Fatal("unrelated provider also suppressed")
	}

	// Re-originating without the community restores the export — the
	// exact knob the discovery algorithm toggles.
	edge.Originate(pfx)
	eng.Run(60 * time.Second)
	if ntt.Best(pfx) == nil {
		t.Fatal("removing community did not restore export")
	}

	// And adding it back withdraws the route from NTT.
	edge.Originate(pfx, NoExportTo(ASNTT))
	eng.Run(120 * time.Second)
	if ntt.Best(pfx) != nil {
		t.Fatal("re-adding community did not withdraw from NTT")
	}
}

func TestScrubActionCommunities(t *testing.T) {
	eng := sim.NewEngine()
	edge := NewSpeaker(eng, "edge", 64512, 1)
	vultr := NewSpeaker(eng, "vultr", ASVultr, 2)
	ntt := NewSpeaker(eng, "ntt", ASNTT, 3)
	cA, cB := pairCfg(RelProvider, "2001:db8:10::1", "2001:db8:10::2")
	Connect(edge, vultr, cA, cB)
	cA, cB = pairCfg(RelProvider, "2001:db8:11::1", "2001:db8:11::2")
	cA.ScrubActionCommunities = true
	Connect(vultr, ntt, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	keep := MakeCommunity(ASVultr, 777)
	edge.Originate(pfx, NoExportTo(ASGTT), keep)
	eng.Run(10 * time.Second)

	best := ntt.Best(pfx)
	if best == nil {
		t.Fatal("no route")
	}
	if best.HasCommunity(NoExportTo(ASGTT)) {
		t.Fatalf("action community leaked: %v", best.Communities)
	}
	if !best.HasCommunity(keep) {
		t.Fatalf("informational community scrubbed: %v", best.Communities)
	}
}

func TestDecisionLocalPrefThenPathLen(t *testing.T) {
	// dst originates; mid1 (1 hop) and mid2->mid3 (2 hops) both reach
	// collector as customers: shortest path wins at equal local-pref.
	eng := sim.NewEngine()
	col := NewSpeaker(eng, "col", 10, 1)
	m1 := NewSpeaker(eng, "m1", 11, 2)
	m2 := NewSpeaker(eng, "m2", 12, 3)
	m3 := NewSpeaker(eng, "m3", 13, 4)
	dst := NewSpeaker(eng, "dst", 14, 5)

	cA, cB := pairCfg(RelCustomer, "2001:db8:10::1", "2001:db8:10::2")
	Connect(col, m1, cA, cB)
	cA, cB = pairCfg(RelCustomer, "2001:db8:11::1", "2001:db8:11::2")
	Connect(col, m2, cA, cB)
	cA, cB = pairCfg(RelCustomer, "2001:db8:12::1", "2001:db8:12::2")
	Connect(m1, dst, cA, cB)
	cA, cB = pairCfg(RelCustomer, "2001:db8:13::1", "2001:db8:13::2")
	Connect(m2, m3, cA, cB)
	cA, cB = pairCfg(RelCustomer, "2001:db8:14::1", "2001:db8:14::2")
	Connect(m3, dst, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	dst.Originate(pfx)
	eng.Run(30 * time.Second)

	best := col.Best(pfx)
	if best == nil {
		t.Fatal("no route")
	}
	if !best.Path.Equal(Path{11, 14}) {
		t.Fatalf("path = %v, want shortest [11 14]", best.Path)
	}

	// A higher local-pref on the long path overrides length.
	long := &Route{LocalPref: DefaultLocalPref(RelCustomer), Path: Path{12, 13, 14}}
	short := &Route{LocalPref: DefaultLocalPref(RelPeer), Path: Path{11, 14}}
	if !better(long, short) || better(short, long) {
		t.Fatal("local-pref must be compared before path length")
	}
}

func TestDecisionRouterIDTieBreak(t *testing.T) {
	eng := sim.NewEngine()
	col := NewSpeaker(eng, "col", 10, 1)
	hi := NewSpeaker(eng, "hi", 11, 99)
	lo := NewSpeaker(eng, "lo", 12, 5)
	dst := NewSpeaker(eng, "dst", 14, 50)
	cA, cB := pairCfg(RelCustomer, "2001:db8:10::1", "2001:db8:10::2")
	Connect(col, hi, cA, cB)
	cA, cB = pairCfg(RelCustomer, "2001:db8:11::1", "2001:db8:11::2")
	Connect(col, lo, cA, cB)
	cA, cB = pairCfg(RelCustomer, "2001:db8:12::1", "2001:db8:12::2")
	Connect(hi, dst, cA, cB)
	cA, cB = pairCfg(RelCustomer, "2001:db8:13::1", "2001:db8:13::2")
	Connect(lo, dst, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	dst.Originate(pfx)
	eng.Run(60 * time.Second)
	best := col.Best(pfx)
	if best == nil {
		t.Fatal("no route")
	}
	// Equal local-pref, equal length: lowest router ID (5, speaker lo).
	if best.Path[0] != 12 {
		t.Fatalf("tie-break picked AS%d, want 12 (lower router ID)", best.Path[0])
	}
}

func TestWithdrawFailover(t *testing.T) {
	eng := sim.NewEngine()
	col := NewSpeaker(eng, "col", 10, 1)
	p1 := NewSpeaker(eng, "p1", 11, 2)
	p2 := NewSpeaker(eng, "p2", 12, 3)
	dst := NewSpeaker(eng, "dst", 14, 4)
	cA, cB := pairCfg(RelCustomer, "2001:db8:10::1", "2001:db8:10::2")
	Connect(col, p1, cA, cB)
	cA, cB = pairCfg(RelCustomer, "2001:db8:11::1", "2001:db8:11::2")
	Connect(col, p2, cA, cB)
	cA, cB = pairCfg(RelCustomer, "2001:db8:12::1", "2001:db8:12::2")
	Connect(p1, dst, cA, cB)
	cA, cB = pairCfg(RelCustomer, "2001:db8:13::1", "2001:db8:13::2")
	Connect(p2, dst, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	dst.Originate(pfx, NoExportTo(12)) // force via p1 only
	eng.Run(30 * time.Second)
	best := col.Best(pfx)
	if best == nil || best.Path[0] != 11 {
		t.Fatalf("initial best = %v", best)
	}

	// Suppress p1 instead: col must fail over to p2.
	dst.Originate(pfx, NoExportTo(11))
	eng.Run(120 * time.Second)
	best = col.Best(pfx)
	if best == nil {
		t.Fatal("no failover route")
	}
	if best.Path[0] != 12 {
		t.Fatalf("failover path = %v, want via 12", best.Path)
	}

	// Suppress both: prefix becomes unreachable (the discovery
	// algorithm's termination condition).
	dst.Originate(pfx, NoExportTo(11), NoExportTo(12))
	eng.Run(240 * time.Second)
	if col.Best(pfx) != nil {
		t.Fatal("prefix still reachable with all exports suppressed")
	}
}

func TestLoopPrevention(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, "a", 100, 1)
	b := NewSpeaker(eng, "b", 200, 2)
	cA, cB := pairCfg(RelCustomer, "2001:db8:10::1", "2001:db8:10::2")
	sa, _ := Connect(a, b, cA, cB)
	_ = sa

	// Simulate b receiving a route already containing its own AS.
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	eng.Run(5 * time.Second) // establish
	u := &Update{
		Announced: []addr.Prefix{pfx},
		Attrs:     Attrs{Path: Path{100, 200, 300}, NextHop: v6("2001:db8:10::1")},
	}
	bs := b.sessions[0]
	b.handleUpdate(bs, u)
	if b.Best(pfx) != nil {
		t.Fatal("looped route accepted")
	}
	if _, ok := bs.AdjIn(pfx); ok {
		t.Fatal("looped route kept in Adj-RIB-In")
	}
}

func TestMRAIPacing(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, "a", 100, 1)
	b := NewSpeaker(eng, "b", 200, 2)
	cA, cB := pairCfg(RelProvider, "2001:db8:10::1", "2001:db8:10::2")
	cA.MRAI = 30 * time.Second
	sa, _ := Connect(a, b, cA, cB)
	eng.Run(time.Second)

	// Flap the origination rapidly; the peer must see paced updates,
	// not one per flap.
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	for i := 0; i < 20; i++ {
		i := i
		eng.Schedule(time.Duration(i)*100*time.Millisecond, func() {
			if i%2 == 0 {
				a.Originate(pfx)
			} else {
				a.Originate(pfx, NoExportTo(999)) // changes communities only
			}
		})
	}
	eng.Run(300 * time.Second)
	if b.Best(pfx) == nil {
		t.Fatal("route missing after flaps")
	}
	// 20 flaps in 2s with MRAI 30s: first flush immediate, next at
	// +30s; far fewer updates than flaps.
	if sa.Stats.UpdatesSent > 5 {
		t.Fatalf("MRAI did not pace: %d updates for 20 flaps", sa.Stats.UpdatesSent)
	}
}

func TestOnBestChangeHook(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, "a", 100, 1)
	b := NewSpeaker(eng, "b", 200, 2)
	cA, cB := pairCfg(RelProvider, "2001:db8:10::1", "2001:db8:10::2")
	Connect(a, b, cA, cB)

	type change struct {
		p        addr.Prefix
		add, del bool
	}
	var changes []change
	b.OnBestChange = func(p addr.Prefix, nb, old *Route) {
		changes = append(changes, change{p, nb != nil, nb == nil})
	}
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	a.Originate(pfx)
	eng.Run(30 * time.Second)
	a.Withdraw(pfx)
	eng.Run(120 * time.Second)

	if len(changes) != 2 || !changes[0].add || !changes[1].del {
		t.Fatalf("changes = %+v", changes)
	}
}

func TestInconsistentRelationsPanic(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, "a", 100, 1)
	b := NewSpeaker(eng, "b", 200, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("customer/customer did not panic")
		}
	}()
	cA, _ := pairCfg(RelCustomer, "2001:db8:10::1", "2001:db8:10::2")
	cB := SessionConfig{Relation: RelCustomer, LocalAddr: v6("2001:db8:10::2")}
	Connect(a, b, cA, cB)
}

func TestStringers(t *testing.T) {
	for _, r := range []Relation{RelCustomer, RelPeer, RelProvider, Relation(9)} {
		if r.String() == "" {
			t.Fatal("Relation.String empty")
		}
	}
	eng := sim.NewEngine()
	sp := NewSpeaker(eng, "x", 1, 2)
	if sp.String() != "x(AS1)" {
		t.Fatalf("Speaker.String = %q", sp.String())
	}
	if sp.Engine() != eng {
		t.Fatal("Engine accessor")
	}
}
