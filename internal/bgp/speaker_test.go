package bgp

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/sim"
)

const msDelay = 20 * time.Millisecond

// pairCfg builds matching session configs: relA is what B is to A, and
// B's side takes the inverse relation.
func pairCfg(relA Relation) (SessionConfig, SessionConfig) {
	var relB Relation
	switch relA {
	case RelCustomer:
		relB = RelProvider
	case RelProvider:
		relB = RelCustomer
	default:
		relB = RelPeer
	}
	return SessionConfig{Relation: relA, Delay: msDelay},
		SessionConfig{Relation: relB, Delay: msDelay}
}

func TestSessionEstablishAndPropagate(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, testTable, "edge", 64512, 1)
	b := NewSpeaker(eng, testTable, "vultr", uint16OK(ASVultr), 2)
	cfgA, cfgB := pairCfg(RelProvider)
	sa, sb := Connect(a, b, cfgA, cfgB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	a.Originate(pfx)
	eng.Run(5 * time.Second)

	best, ok := b.Best(pfx)
	if !ok {
		t.Fatal("route did not propagate")
	}
	if !best.Path.Equal(Path{64512}) {
		t.Fatalf("path = %v", best.Path)
	}
	if best.FromSession != sb {
		t.Fatalf("best came in on %v, want %v", best.FromSession, sb)
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
	edge = NewSpeaker(eng, testTable, "edge", 64512, 1)
	vultr = NewSpeaker(eng, testTable, "vultr", ASVultr, 2)
	transit = NewSpeaker(eng, testTable, "ntt", ASNTT, 3)
	rvultr = NewSpeaker(eng, testTable, "vultr2", 20474, 4) // distinct AS for the remote DC side
	redge = NewSpeaker(eng, testTable, "edge2", 64513, 5)

	cA, cB := pairCfg(RelProvider)
	Connect(edge, vultr, cA, cB)
	cA, cB = pairCfg(RelProvider)
	Connect(vultr, transit, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	Connect(transit, rvultr, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	Connect(rvultr, redge, cA, cB)
	return
}

func TestPathAccumulationAcrossChain(t *testing.T) {
	eng := sim.NewEngine()
	edge, _, _, _, redge := chain(eng)
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	edge.Originate(pfx)
	eng.Run(10 * time.Second)

	best, ok := redge.Best(pfx)
	if !ok {
		t.Fatal("route did not cross the chain")
	}
	want := Path{20474, ASNTT, ASVultr, 64512}
	if !best.Path.Equal(want) {
		t.Fatalf("path = %v, want %v", best.Path, want)
	}
}

// borderFanout connects edge (private AS 64512) to Vultr, and Vultr to
// NTT over a border session and to GTT over a plain one. edge
// originates pfx tagged with an action community and an informational
// one, and the engine runs until the routes settle.
func borderFanout() (ntt, gtt *Speaker, pfx addr.Prefix, action, keep Community) {
	eng := sim.NewEngine()
	edge := NewSpeaker(eng, testTable, "edge", 64512, 1)
	vultr := NewSpeaker(eng, testTable, "vultr", ASVultr, 2)
	ntt = NewSpeaker(eng, testTable, "ntt", ASNTT, 3)
	gtt = NewSpeaker(eng, testTable, "gtt", ASGTT, 4)
	cA, cB := pairCfg(RelProvider)
	Connect(edge, vultr, cA, cB)
	cA, cB = pairCfg(RelProvider)
	cA.Border = true
	Connect(vultr, ntt, cA, cB)
	cA, cB = pairCfg(RelProvider)
	Connect(vultr, gtt, cA, cB)

	pfx = addr.MustParsePrefix("2001:db8:1::/48")
	action, keep = NoExportTo(ASCogent), MakeCommunity(ASVultr, 777)
	edge.Originate(pfx, action, keep)
	eng.Run(10 * time.Second)
	return
}

// TestStripPrivateASN: a border session (Vultr's toward its transit)
// strips the customer's private ASN; a plain session to another
// provider keeps it.
func TestStripPrivateASN(t *testing.T) {
	ntt, gtt, pfx, _, _ := borderFanout()
	for _, tc := range []struct {
		who  string
		at   *Speaker
		path Path
	}{
		{"border peer ntt", ntt, Path{ASVultr}},
		{"plain peer gtt", gtt, Path{ASVultr, 64512}},
	} {
		best, ok := tc.at.Best(pfx)
		if !ok {
			t.Fatalf("%s has no route", tc.who)
		}
		if !best.Path.Equal(tc.path) {
			t.Errorf("%s: path %v, want %v", tc.who, best.Path, tc.path)
		}
	}
}

// TestScrubActionCommunities: a border session scrubs the action
// communities its speaker applied and keeps informational ones; a plain
// session to another provider carries both.
func TestScrubActionCommunities(t *testing.T) {
	ntt, gtt, pfx, action, keep := borderFanout()
	for _, tc := range []struct {
		who   string
		at    *Speaker
		comms []Community
	}{
		{"border peer ntt", ntt, []Community{keep}},
		{"plain peer gtt", gtt, []Community{action, keep}},
	} {
		best, ok := tc.at.Best(pfx)
		if !ok {
			t.Fatalf("%s has no route", tc.who)
		}
		if !slices.Equal(best.Communities, tc.comms) {
			t.Errorf("%s: communities %v, want %v", tc.who, best.Communities, tc.comms)
		}
	}
}

func TestGaoRexfordValleyFree(t *testing.T) {
	// transit1 -> vultr <- transit2: a route learned from provider
	// transit1 must NOT be exported to provider transit2.
	eng := sim.NewEngine()
	vultr := NewSpeaker(eng, testTable, "vultr", ASVultr, 1)
	t1 := NewSpeaker(eng, testTable, "ntt", ASNTT, 2)
	t2 := NewSpeaker(eng, testTable, "gtt", ASGTT, 3)
	cA, cB := pairCfg(RelProvider)
	Connect(vultr, t1, cA, cB)
	cA, cB = pairCfg(RelProvider)
	Connect(vultr, t2, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	t1.Originate(pfx)
	eng.Run(10 * time.Second)

	if _, ok := vultr.Best(pfx); !ok {
		t.Fatal("customer did not learn provider route")
	}
	if _, ok := t2.Best(pfx); ok {
		t.Fatal("valley: provider route leaked to another provider")
	}

	// But a customer route IS exported to providers.
	pfx2 := addr.MustParsePrefix("2001:db8:2::/48")
	vultr.Originate(pfx2)
	eng.Run(20 * time.Second)
	_, ok1 := t1.Best(pfx2)
	_, ok2 := t2.Best(pfx2)
	if !ok1 || !ok2 {
		t.Fatal("origin route not exported to providers")
	}
}

func TestPeerToPeerNoTransit(t *testing.T) {
	// a --peer-- b --peer-- c: a's route must reach b but not c.
	eng := sim.NewEngine()
	a := NewSpeaker(eng, testTable, "a", 100, 1)
	b := NewSpeaker(eng, testTable, "b", 200, 2)
	c := NewSpeaker(eng, testTable, "c", 300, 3)
	cA, cB := pairCfg(RelPeer)
	Connect(a, b, cA, cB)
	cA, cB = pairCfg(RelPeer)
	Connect(b, c, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	a.Originate(pfx)
	eng.Run(10 * time.Second)
	if _, ok := b.Best(pfx); !ok {
		t.Fatal("peer route not learned")
	}
	if _, ok := c.Best(pfx); ok {
		t.Fatal("peer route transited")
	}
}

func TestNoExportToCommunity(t *testing.T) {
	// edge announces via vultr with NoExportTo(NTT): NTT must not hear
	// it, GTT must.
	eng := sim.NewEngine()
	edge := NewSpeaker(eng, testTable, "edge", 64512, 1)
	vultr := NewSpeaker(eng, testTable, "vultr", ASVultr, 2)
	ntt := NewSpeaker(eng, testTable, "ntt", ASNTT, 3)
	gtt := NewSpeaker(eng, testTable, "gtt", ASGTT, 4)
	cA, cB := pairCfg(RelProvider)
	Connect(edge, vultr, cA, cB)
	cA, cB = pairCfg(RelProvider)
	Connect(vultr, ntt, cA, cB)
	cA, cB = pairCfg(RelProvider)
	Connect(vultr, gtt, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	edge.Originate(pfx, NoExportTo(ASNTT))
	eng.Run(10 * time.Second)

	if _, ok := ntt.Best(pfx); ok {
		t.Fatal("NoExportTo(NTT) did not suppress export to NTT")
	}
	if _, ok := gtt.Best(pfx); !ok {
		t.Fatal("unrelated provider also suppressed")
	}

	// Re-originating without the community restores the export — the
	// exact knob the discovery algorithm toggles.
	edge.Originate(pfx)
	eng.Run(60 * time.Second)
	if _, ok := ntt.Best(pfx); !ok {
		t.Fatal("removing community did not restore export")
	}

	// And adding it back withdraws the route from NTT.
	edge.Originate(pfx, NoExportTo(ASNTT))
	eng.Run(120 * time.Second)
	if _, ok := ntt.Best(pfx); ok {
		t.Fatal("re-adding community did not withdraw from NTT")
	}
}

func TestDecisionLocalPrefThenPathLen(t *testing.T) {
	// dst originates; mid1 (1 hop) and mid2->mid3 (2 hops) both reach
	// collector as customers: shortest path wins at equal local-pref.
	eng := sim.NewEngine()
	col := NewSpeaker(eng, testTable, "col", 10, 1)
	m1 := NewSpeaker(eng, testTable, "m1", 11, 2)
	m2 := NewSpeaker(eng, testTable, "m2", 12, 3)
	m3 := NewSpeaker(eng, testTable, "m3", 13, 4)
	dst := NewSpeaker(eng, testTable, "dst", 14, 5)

	cA, cB := pairCfg(RelCustomer)
	Connect(col, m1, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	fromCustomer, _ := Connect(col, m2, cA, cB)
	cA, cB = pairCfg(RelPeer)
	fromPeer, _ := Connect(col, NewSpeaker(eng, testTable, "peer", 15, 6), cA, cB)
	cA, cB = pairCfg(RelCustomer)
	Connect(m1, dst, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	Connect(m2, m3, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	Connect(m3, dst, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	dst.Originate(pfx)
	eng.Run(30 * time.Second)

	best, ok := col.Best(pfx)
	if !ok {
		t.Fatal("no route")
	}
	if !best.Path.Equal(Path{11, 14}) {
		t.Fatalf("path = %v, want shortest [11 14]", best.Path)
	}

	// A higher local-pref on the long path overrides length.
	long := Route{&Attrs{Path: Path{12, 13, 14}}, fromCustomer}
	short := Route{&Attrs{Path: Path{11, 14}}, fromPeer}
	if !better(long, short) || better(short, long) {
		t.Fatal("local-pref must be compared before path length")
	}
}

func TestDecisionRouterIDTieBreak(t *testing.T) {
	eng := sim.NewEngine()
	col := NewSpeaker(eng, testTable, "col", 10, 1)
	hi := NewSpeaker(eng, testTable, "hi", 11, 99)
	lo := NewSpeaker(eng, testTable, "lo", 12, 5)
	dst := NewSpeaker(eng, testTable, "dst", 14, 50)
	cA, cB := pairCfg(RelCustomer)
	Connect(col, hi, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	Connect(col, lo, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	Connect(hi, dst, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	Connect(lo, dst, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	dst.Originate(pfx)
	eng.Run(60 * time.Second)
	best, ok := col.Best(pfx)
	if !ok {
		t.Fatal("no route")
	}
	// Equal local-pref, equal length: lowest router ID (5, speaker lo).
	if best.Path[0] != 12 {
		t.Fatalf("tie-break picked AS%d, want 12 (lower router ID)", best.Path[0])
	}
}

func TestWithdrawFailover(t *testing.T) {
	eng := sim.NewEngine()
	col := NewSpeaker(eng, testTable, "col", 10, 1)
	p1 := NewSpeaker(eng, testTable, "p1", 11, 2)
	p2 := NewSpeaker(eng, testTable, "p2", 12, 3)
	dst := NewSpeaker(eng, testTable, "dst", 14, 4)
	cA, cB := pairCfg(RelCustomer)
	Connect(col, p1, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	Connect(col, p2, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	Connect(p1, dst, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	Connect(p2, dst, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	dst.Originate(pfx, NoExportTo(12)) // force via p1 only
	eng.Run(30 * time.Second)
	best, ok := col.Best(pfx)
	if !ok || best.Path[0] != 11 {
		t.Fatalf("initial best = %v", best)
	}

	// Suppress p1 instead: col must fail over to p2.
	dst.Originate(pfx, NoExportTo(11))
	eng.Run(120 * time.Second)
	best, ok = col.Best(pfx)
	if !ok {
		t.Fatal("no failover route")
	}
	if best.Path[0] != 12 {
		t.Fatalf("failover path = %v, want via 12", best.Path)
	}

	// Suppress both: prefix becomes unreachable (the discovery
	// algorithm's termination condition).
	dst.Originate(pfx, NoExportTo(11), NoExportTo(12))
	eng.Run(240 * time.Second)
	if _, ok := col.Best(pfx); ok {
		t.Fatal("prefix still reachable with all exports suppressed")
	}
}

func TestLoopPrevention(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, testTable, "a", 100, 1)
	b := NewSpeaker(eng, testTable, "b", 200, 2)
	cA, cB := pairCfg(RelCustomer)
	sa, _ := Connect(a, b, cA, cB)
	_ = sa

	// Simulate b receiving a route already containing its own AS.
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	eng.Run(5 * time.Second) // establish
	bs := b.sessions[0]
	bs.OnSimEvent(announce(pfx, Path{100, 200, 300}))
	if _, ok := b.Best(pfx); ok {
		t.Fatal("looped route accepted")
	}
	if _, ok := bs.AdjIn(pfx); ok {
		t.Fatal("looped route kept in Adj-RIB-In")
	}
}

func TestMRAIPacing(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, testTable, "a", 100, 1)
	b := NewSpeaker(eng, testTable, "b", 200, 2)
	cA, cB := pairCfg(RelProvider)
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
	if _, ok := b.Best(pfx); !ok {
		t.Fatal("route missing after flaps")
	}
	// 20 flaps in 2s with MRAI 30s: first flush immediate, next at
	// +30s; far fewer updates than flaps.
	if sa.Stats.UpdatesSent > 5 {
		t.Fatalf("MRAI did not pace: %d updates for 20 flaps", sa.Stats.UpdatesSent)
	}
}

// TestFlushSendsInPrefixOrder: one MRAI flush advertises its pending
// prefixes in addr.Prefix order, whatever order they were queued in, so
// a run's UPDATE sequence does not depend on map iteration.
func TestFlushSendsInPrefixOrder(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, testTable, "a", 100, 1)
	b := NewSpeaker(eng, testTable, "b", 200, 2)
	cA, cB := pairCfg(RelProvider)
	Connect(a, b, cA, cB)
	eng.Run(time.Second)

	var got []addr.Prefix
	b.OnBestChange = func(p addr.Prefix, _ Route) { got = append(got, p) }
	// 24 prefixes numbered 1 to 254 in testTable, so the queued bits
	// span four words.
	var want []addr.Prefix
	for i := 0; i < 24; i++ {
		want = append(want, addr.MustParsePrefix(fmt.Sprintf("2001:db8:%x::/48", 11*i+1)))
	}
	check := func(what string, queue func(addr.Prefix)) {
		t.Helper()
		got = got[:0]
		eng.Schedule(0, func() { // one instant, so one flush
			for i := len(want) - 1; i >= 0; i-- {
				queue(want[i])
			}
		})
		eng.Run(eng.Now() + time.Minute)
		if len(got) != len(want) {
			t.Fatalf("%s: peer saw %d changes, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: change %d is %v, want %v (order %v)", what, i, got[i], want[i], got)
			}
		}
	}
	check("announcements", func(p addr.Prefix) { a.Originate(p) })
	check("withdrawals", a.Withdraw)

	// The same prefixes, first heard in two different orders, give
	// byte-identical UPDATE sequences: src originates them one flush
	// apart in the given order, so a and b first hear of them in it, then
	// re-originates them all at one instant, and b transcribes what a's
	// one flush sends it.
	transcript := func(order []addr.Prefix) string {
		eng := sim.NewEngine()
		src := NewSpeaker(eng, testTable, "src", 300, 3)
		a := NewSpeaker(eng, testTable, "a", 100, 1)
		b := NewSpeaker(eng, testTable, "b", 200, 2)
		cS, cA := pairCfg(RelProvider)
		Connect(src, a, cS, cA)
		cA, cB := pairCfg(RelProvider)
		Connect(a, b, cA, cB)
		eng.Run(time.Second)
		for _, p := range order {
			src.Originate(p)
			eng.Run(eng.Now() + time.Minute)
		}
		var out strings.Builder
		b.OnBestChange = func(p addr.Prefix, r Route) {
			fmt.Fprintf(&out, "%d %v [%v] %v\n", eng.Now(), p, r.Path, r.Communities)
		}
		eng.Schedule(0, func() {
			for _, p := range order {
				src.Originate(p, MakeCommunity(300, 1))
			}
		})
		eng.Run(eng.Now() + time.Minute)
		return out.String()
	}
	shuffled := slices.Clone(want)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	up, mixed := transcript(want), transcript(shuffled)
	if n := strings.Count(up, "\n"); n != len(want) {
		t.Fatalf("b saw %d UPDATEs in the re-origination flush, want %d:\n%s", n, len(want), up)
	}
	if up != mixed {
		t.Fatalf("first heard in ascending order, b saw\n%s\nfirst heard shuffled, it saw\n%s", up, mixed)
	}
}

func TestOnBestChangeHook(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, testTable, "a", 100, 1)
	b := NewSpeaker(eng, testTable, "b", 200, 2)
	cA, cB := pairCfg(RelProvider)
	Connect(a, b, cA, cB)

	type change struct {
		p        addr.Prefix
		add, del bool
	}
	var changes []change
	b.OnBestChange = func(p addr.Prefix, nb Route) {
		changes = append(changes, change{p, nb.Attrs != nil, nb.Attrs == nil})
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

// TestBestIsAttrsAndSession: a best route is the attributes an UPDATE
// carried and the session it came in on. a announces to its provider b,
// which exports to its provider c. b's best holds a's export set itself,
// not a copy. A re-announcement with new attributes on the session
// holding the best fires OnBestChange once with them and sends c one
// UPDATE; re-originating the same attributes sends b nothing, so its
// best stays; a withdrawal passes the zero Route.
func TestBestIsAttrsAndSession(t *testing.T) {
	eng, a, b, sa, sb := handover()
	c := NewSpeaker(eng, testTable, "c", 300, 3)
	cB, cC := pairCfg(RelProvider)
	sbc, _ := Connect(b, c, cB, cC)
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	var changes []Route
	b.OnBestChange = func(_ addr.Prefix, r Route) { changes = append(changes, r) }
	step := func(what string, change func(), wantChanges int, wantSent uint64) Route {
		t.Helper()
		changes = changes[:0]
		sent := sbc.Stats.UpdatesSent
		change()
		eng.Run(eng.Now() + time.Minute)
		if len(changes) != wantChanges || sbc.Stats.UpdatesSent-sent != wantSent {
			t.Fatalf("%s: %d best changes and %d UPDATEs to c, want %d and %d", what, len(changes), sbc.Stats.UpdatesSent-sent, wantChanges, wantSent)
		}
		best, _ := b.Best(pfx)
		return best
	}

	first := step("announcement", func() { a.Originate(pfx) }, 1, 1)
	if x := adjOut(sa, pfx); first.Attrs != x || &first.Path[0] != &x.Path[0] || first.FromSession != sb || changes[0] != first {
		t.Fatalf("b's best %v holds %p, want a's export set %p on %v", first, first.Attrs, x, sb)
	}
	tag := MakeCommunity(100, 7)
	second := step("new attributes", func() { a.Originate(pfx, tag) }, 1, 1)
	if second.Attrs != adjOut(sa, pfx) || second == first || changes[0] != second || !second.HasCommunity(tag) {
		t.Fatalf("re-announced best %v %v, want a's new export set with %v", second, second.Communities, tag)
	}
	if r, _ := c.Best(pfx); !r.HasCommunity(tag) {
		t.Fatalf("c's best %v %v lacks %v", r, r.Communities, tag)
	}
	if same := step("same attributes", func() { a.Originate(pfx, tag) }, 0, 0); same != second {
		t.Fatalf("re-originating the same attributes moved b's best to %v", same)
	}
	step("withdrawal", func() { a.Withdraw(pfx) }, 1, 1)
	if changes[0] != (Route{}) {
		t.Fatalf("withdrawal passed %v, want the zero Route", changes[0])
	}
}

// TestLearnedRouteAllocatesNothing: accepting an announcement that
// replaces the best route stores the export set's attributes and
// allocates nothing. Two export sets alternate on one session.
func TestLearnedRouteAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	x := NewSpeaker(eng, testTable, "x", 100, 1)
	p := NewSpeaker(eng, testTable, "p", 200, 2)
	cX, cP := pairCfg(RelProvider)
	s, _ := Connect(x, p, cX, cP)
	eng.Run(time.Second)
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	sets := [2]*exportSet{announce(pfx, Path{200}), announce(pfx, Path{200, 7})}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		s.OnSimEvent(sets[i%2])
	})
	if in, _ := s.AdjIn(pfx); in.Attrs != &sets[i%2].Attrs {
		t.Fatalf("Adj-RIB-In holds %p, want the last announcement's attributes %p", in.Attrs, &sets[i%2].Attrs)
	}
	if best, _ := x.Best(pfx); !best.Path.Equal(sets[i%2].Path) {
		t.Fatalf("best path %v, want the last announcement's %v", best.Path, sets[i%2].Path)
	}
	if allocs != 0 {
		t.Errorf("accepting an announcement allocated %v times, want 0", allocs)
	}
}

func TestInconsistentRelationsPanic(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, testTable, "a", 100, 1)
	b := NewSpeaker(eng, testTable, "b", 200, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("customer/customer did not panic")
		}
	}()
	cA, _ := pairCfg(RelCustomer)
	cB := SessionConfig{Relation: RelCustomer}
	Connect(a, b, cA, cB)
}

func TestStringers(t *testing.T) {
	for _, r := range []Relation{RelCustomer, RelPeer, RelProvider, Relation(9)} {
		if r.String() == "" {
			t.Fatal("Relation.String empty")
		}
	}
	eng := sim.NewEngine()
	sp := NewSpeaker(eng, testTable, "x", 1, 2)
	if sp.String() != "x(AS1)" {
		t.Fatalf("Speaker.String = %q", sp.String())
	}
	if sp.Engine() != eng {
		t.Fatal("Engine accessor")
	}
}

// eightCustomers returns a speaker with 8 established customer sessions
// and a prefix number it originates, best as the second of the two
// originated attribute sets it returns. The customers' ASNs are in the
// originated path, so they reject what they hear and a run counts the
// sender alone. updates sums the UPDATEs the speaker sent.
func eightCustomers() (eng *sim.Engine, x *Speaker, n int32, routes [2]*Attrs, updates func() uint64) {
	eng = sim.NewEngine()
	x = NewSpeaker(eng, testTable, "x", 100, 1)
	var poison Path
	for i := range 8 {
		c := NewSpeaker(eng, testTable, fmt.Sprintf("c%d", i), ASN(201+i), uint32(2+i))
		cX, cC := pairCfg(RelCustomer)
		Connect(x, c, cX, cC)
		poison = append(poison, c.AS)
	}
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	for i := range routes {
		x.OriginateWithPath(pfx, poison, MakeCommunity(100, uint16(i)))
		r, _ := x.Originated(pfx)
		routes[i] = r.Attrs
	}
	eng.Run(time.Second)
	updates = func() (sum uint64) {
		for _, s := range x.sessions {
			sum += s.Stats.UpdatesSent
		}
		return sum
	}
	return eng, x, x.lookup(pfx), routes, updates
}

// TestExportAllocatesNothingWhenUnchanged: a speaker with 8 established
// customer sessions re-advertises a prefix. A flush whose exports did not
// change allocates nothing; a best change allocates one export set (the
// set and its path), which every session sends as it is, and no
// per-session copy of the route or message.
func TestExportAllocatesNothingWhenUnchanged(t *testing.T) {
	eng, x, n, routes, updates := eightCustomers()

	before := updates()
	unchanged := testing.AllocsPerRun(100, func() {
		x.scheduleExportAll(n)
		eng.Run(eng.Now() + time.Second)
	})
	if unchanged != 0 || updates() != before {
		t.Errorf("a flush with nothing new allocated %v times and sent %d UPDATEs, want 0 and 0", unchanged, updates()-before)
	}

	i := 1 // routes[1] is best now
	before = updates()
	changed := testing.AllocsPerRun(100, func() {
		i++
		x.rib.at(n).originated = routes[i%2]
		x.reselect(n)
		eng.Run(eng.Now() + time.Second)
	})
	if sent := updates() - before; sent != 8*101 {
		t.Fatalf("101 best changes sent %d UPDATEs, want %d", sent, 8*101)
	}
	if want := 2.0; changed != want {
		t.Errorf("a best change allocated %v times, want %v (one export set and its path)", changed, want)
	}
}

// TestWithdrawalAllocatesNothing: the same speaker withdraws its prefix
// from 8 customer sessions, one UPDATE each, and the flush allocates
// nothing: every session sends the table's withdrawal of the number. The
// re-announcement between two withdrawals runs outside the count, and
// the count is checked without the race detector only.
func TestWithdrawalAllocatesNothing(t *testing.T) {
	eng, x, n, routes, updates := eightCustomers()
	var before, after runtime.MemStats
	allocs, sent := uint64(0), uint64(0)
	const runs = 100
	for i := range runs {
		x.rib.at(n).originated = routes[i%2]
		x.reselect(n)
		eng.Run(eng.Now() + time.Second)
		u := updates()
		runtime.ReadMemStats(&before)
		x.rib.at(n).originated = nil
		x.reselect(n)
		eng.Run(eng.Now() + time.Second)
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		sent += updates() - u
	}
	if sent != 8*runs {
		t.Fatalf("%d withdrawals sent %d UPDATEs, want %d", runs, sent, 8*runs)
	}
	// The race detector allocates on its own bookkeeping.
	if got := float64(allocs) / runs; got != 0 && !sim.RaceEnabled {
		t.Errorf("a withdrawal allocated %v times, want 0", got)
	}
}

// TestPeersOfOneKindHearOneSet: the two customers of a speaker hear one
// UPDATE each for its prefix, and both Adj-RIB-In slots hold the very
// attributes of the export set the speaker sent them, the set it records
// as each session's Adj-RIB-Out.
func TestPeersOfOneKindHearOneSet(t *testing.T) {
	eng := sim.NewEngine()
	x := NewSpeaker(eng, testTable, "x", 100, 1)
	var out, in [2]*Session
	for i := range in {
		c := NewSpeaker(eng, testTable, fmt.Sprintf("c%d", i), ASN(201+i), uint32(2+i))
		cX, cC := pairCfg(RelCustomer)
		out[i], in[i] = Connect(x, c, cX, cC)
	}
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	x.Originate(pfx, MakeCommunity(100, 1))
	eng.Run(time.Second)
	set := adjOut(out[0], pfx)
	if set == nil || adjOut(out[1], pfx) != set {
		t.Fatalf("Adj-RIB-Out %p and %p, want one export set", set, adjOut(out[1], pfx))
	}
	for i, s := range in {
		if r, _ := s.AdjIn(pfx); r.Attrs != set {
			t.Errorf("customer %d holds %p, want the sent set's attributes %p", i, r.Attrs, set)
		}
		if n := out[i].Stats.UpdatesSent; n != 1 {
			t.Errorf("session to customer %d sent %d UPDATEs, want 1", i, n)
		}
	}
}
