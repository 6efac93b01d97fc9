package bgp

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"tango/internal/addr"
	"tango/internal/sim"
)

// handover connects a (AS 100) to its provider b (AS 200) and returns
// the engine and both sides' sessions.
func handover() (eng *sim.Engine, a, b *Speaker, sa, sb *Session) {
	eng = sim.NewEngine()
	a = NewSpeaker(eng, testTable, "a", 100, 1)
	b = NewSpeaker(eng, testTable, "b", 200, 2)
	cA, cB := pairCfg(RelProvider)
	sa, sb = Connect(a, b, cA, cB)
	return eng, a, b, sa, sb
}

// adjOut returns the attributes s last exported for p (its export set),
// or nil.
func adjOut(s *Session, p addr.Prefix) *Attrs {
	n := s.speaker.lookup(p)
	if n < 0 || s.adj.at(n).out == nil {
		return nil
	}
	return &s.adj.at(n).out.Attrs
}

// TestOpenRoundTrip: each side's OPEN reaches the peer one session delay
// after Connect and is answered by a KEEPALIVE, so both sides establish
// exactly one round trip in, not an event sooner.
func TestOpenRoundTrip(t *testing.T) {
	eng, _, _, sa, sb := handover()
	eng.Run(2*msDelay - 1)
	if sa.established || sb.established {
		t.Fatalf("before one round trip: established %v/%v, want neither", sa.established, sb.established)
	}
	eng.Run(2 * msDelay)
	if !sa.established || !sb.established {
		t.Fatalf("after one round trip: established %v/%v, want both", sa.established, sb.established)
	}
}

// TestUpdateRoundTripIPv6: the peer learns a route for the prefix
// exactly as the sender exported it — path and communities — and only
// the session it came in on and the local preference that follows are
// the receiver's own.
func TestUpdateRoundTripIPv6(t *testing.T) {
	eng, a, _, sa, sb := handover()
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	a.OriginateWithPath(pfx, Path{300, 400}, MakeCommunity(ASVultr, 100), MakeCommunity(300, 7))
	eng.Run(time.Second)
	sent := adjOut(sa, pfx)
	got, ok := sb.AdjIn(pfx)
	if sent == nil || !ok {
		t.Fatalf("exported %v, learned %v", sent, got)
	}
	if !got.Path.Equal(sent.Path) || !slices.Equal(got.Communities, sent.Communities) {
		t.Fatalf("learned %v %v, exported %v %v", got, got.Communities, sent.Path, sent.Communities)
	}
	if got.LocalPref() != DefaultLocalPref(RelCustomer) || got.FromSession != sb {
		t.Fatalf("learned local-pref %d from %v", got.LocalPref(), got.FromSession)
	}
}

// TestUpdateWithdrawOnly: withdrawing a prefix costs the peer one UPDATE,
// and both sides' RIBs forget the route.
func TestUpdateWithdrawOnly(t *testing.T) {
	eng, a, b, sa, sb := handover()
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	a.Originate(pfx)
	eng.Run(time.Second)
	sent := sa.Stats.UpdatesSent
	a.Withdraw(pfx)
	eng.Run(2 * time.Second)
	if n := sa.Stats.UpdatesSent - sent; n != 1 {
		t.Fatalf("withdrawal sent %d UPDATEs, want 1", n)
	}
	if _, ok := b.Best(pfx); ok || adjOut(sa, pfx) != nil || sb.AdjInLen() != 0 {
		t.Fatal("withdrawn route survived")
	}
}

// Property: whatever path and communities a speaker originates, its peer
// learns that path behind the speaker's AS, with the same communities.
func TestUpdateRoundTripProperty(t *testing.T) {
	f := func(pathRaw []uint16, comms []uint32) bool {
		var poison Path
		for _, a := range pathRaw[:min(len(pathRaw), 30)] {
			if ASN(a) != 200 { // the peer would reject its own AS
				poison = append(poison, ASN(a))
			}
		}
		var cs []Community
		for _, c := range comms[:min(len(comms), 30)] {
			if Community(c).ASN() == ActionNoExportTo {
				continue // the knob that changes the export itself
			}
			cs = append(cs, Community(c))
		}
		eng, a, b, _, _ := handover()
		pfx := addr.MustParsePrefix("2001:db8:1::/48")
		a.OriginateWithPath(pfx, poison, cs...)
		eng.Run(time.Second)
		best, ok := b.Best(pfx)
		return ok && best.Path.Equal(append(Path{100}, poison...)) && slices.Equal(best.Communities, cs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScrubDoesNotWriteSharedAttributes: an export set shares its
// communities with the Loc-RIB route it was built from, with the plain
// sessions' set and with every route a peer learns from it, so scrubbing
// must build a new list, never filter the shared one in place. a exports
// an action community for some other AS plus a tag over a border session
// to b and a plain one to c: c keeps both communities, b keeps only the
// tag, and a's own route is as originated.
func TestScrubDoesNotWriteSharedAttributes(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, testTable, "a", 100, 1)
	b := NewSpeaker(eng, testTable, "b", 200, 2)
	c := NewSpeaker(eng, testTable, "c", 300, 3)
	cA, cB := pairCfg(RelProvider)
	cA.Border = true
	Connect(a, b, cA, cB)
	cA, cC := pairCfg(RelProvider)
	Connect(a, c, cA, cC)
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	action, tag := NoExportTo(999), MakeCommunity(100, 7)
	a.Originate(pfx, action, tag)
	eng.Run(time.Second)

	for _, tc := range []struct {
		who  string
		at   *Speaker
		want []Community
	}{
		{"plain peer c", c, []Community{action, tag}},
		{"border peer b", b, []Community{tag}},
		{"sender a", a, []Community{action, tag}},
	} {
		r, ok := tc.at.Best(pfx)
		if !ok {
			t.Fatalf("%s has no route", tc.who)
		}
		if !slices.Equal(r.Communities, tc.want) {
			t.Errorf("%s: communities %v, want %v", tc.who, r.Communities, tc.want)
		}
	}
}

// TestSameExportComparesInOrder: two export sets are the same export
// when they carry one path and one community list, in one order; no
// export is the same as no export only.
func TestSameExportComparesInOrder(t *testing.T) {
	x := &exportSet{Attrs: Attrs{Path{1, 2}, []Community{5, 6}}}
	for _, tc := range []struct {
		y    *exportSet
		same bool
	}{
		{x, true},
		{&exportSet{Attrs: Attrs{Path{1, 2}, []Community{5, 6}}}, true},
		{&exportSet{Attrs: Attrs{Path{1, 2}, []Community{6, 5}}}, false},
		{&exportSet{Attrs: Attrs{Path{1, 2}, []Community{5, 7}}}, false},
		{&exportSet{Attrs: Attrs{Path{1, 3}, []Community{5, 6}}}, false},
		{&exportSet{Attrs: Attrs{Path{1, 2}, []Community{5}}}, false},
		{&exportSet{Attrs: Attrs{Path{1, 2}, []Community{5, 5}}}, false},
	} {
		if got := sameExport(x, tc.y); got != tc.same {
			t.Errorf("sameExport(%v %v, %v %v) = %v", x.Path, x.Communities, tc.y.Path, tc.y.Communities, got)
		}
	}
	if !sameExport(nil, nil) || sameExport(x, nil) || sameExport(nil, x) {
		t.Error("sameExport with no export: want true for nil, nil only")
	}
}

// TestExportSetsKeepOriginOrder: every export set carries its
// originator's communities in the originator's order, less the action
// communities a border session scrubs; no hop sorts or reorders them.
// The shipped originators re-announce a prefix in two ways, both run
// here: a discovery round extends the previous list, and a withdrawal
// fault's revert repeats it. So two exports of one prefix never hold one
// community set in two orders, and sameExport compares in order.
func TestExportSetsKeepOriginOrder(t *testing.T) {
	eng := sim.NewEngine()
	edge := NewSpeaker(eng, testTable, "edge", 64512, 1)
	vultr := NewSpeaker(eng, testTable, "vultr", ASVultr, 2)
	ntt := NewSpeaker(eng, testTable, "ntt", ASNTT, 3)
	gtt := NewSpeaker(eng, testTable, "gtt", ASGTT, 4)
	remote := NewSpeaker(eng, testTable, "remote", 20474, 5)
	cA, cB := pairCfg(RelProvider)
	Connect(edge, vultr, cA, cB)
	cA, cB = pairCfg(RelProvider)
	cA.Border = true
	Connect(vultr, ntt, cA, cB)
	cA, cB = pairCfg(RelProvider)
	Connect(vultr, gtt, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	Connect(ntt, remote, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	Connect(gtt, remote, cA, cB)

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	// Informational communities out of numeric order, between actions.
	list := []Community{MakeCommunity(ASVultr, 900), NoExportTo(ASCogent), MakeCommunity(ASVultr, 100), NoExportTo(ASTelia)}
	inOrder := func(sub, of []Community) bool {
		i := 0
		for _, c := range of {
			if i < len(sub) && sub[i] == c {
				i++
			}
		}
		return i == len(sub)
	}
	check := func(step string) {
		t.Helper()
		eng.Run(eng.Now() + 10*time.Second)
		exports := 0
		for _, sp := range []*Speaker{edge, vultr, ntt, gtt, remote} {
			for _, s := range sp.sessions {
				x := adjOut(s, pfx)
				if x == nil {
					continue
				}
				exports++
				if !inOrder(x.Communities, list) {
					t.Fatalf("%s: %s exports %v to AS%d, not in the origin's order %v", step, sp.Name, x.Communities, s.PeerAS(), list)
				}
			}
		}
		if exports < 5 {
			t.Fatalf("%s: %d export sets, want one per session toward the remote side", step, exports)
		}
	}
	edge.Originate(pfx, list...)
	check("first announcement")
	list = append(list, NoExportTo(ASLevel3), MakeCommunity(ASVultr, 500))
	edge.Originate(pfx, list...)
	check("extended like a discovery round")
	edge.Withdraw(pfx)
	eng.Run(eng.Now() + 10*time.Second)
	edge.Originate(pfx, list...)
	check("repeated like a withdrawal's revert")
}

func TestCommunityHelpers(t *testing.T) {
	c := MakeCommunity(ASVultr, 6000)
	if c.ASN() != ASVultr || uint16(c) != 6000 {
		t.Fatalf("community parts: %v %v", c.ASN(), uint16(c))
	}
	if c.String() != "20473:6000" {
		t.Fatalf("String = %q", c.String())
	}
	if NoExportTo(ASNTT) != MakeCommunity(64600, 2914) {
		t.Fatal("NoExportTo wrong")
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{64512, ASVultr, ASNTT}
	if !p.Contains(ASNTT) || p.Contains(ASGTT) {
		t.Fatal("Contains wrong")
	}
	s := p.StripPrivate()
	if !s.Equal(Path{ASVultr, ASNTT}) {
		t.Fatalf("StripPrivate = %v", s)
	}
	if p.String() != "64512 20473 2914" {
		t.Fatalf("String = %q", p.String())
	}
	c := p.Clone()
	c[0] = 1
	if p[0] != 64512 {
		t.Fatal("Clone aliased")
	}
	if !ASN(64512).IsPrivate() || ASN(2914).IsPrivate() {
		t.Fatal("IsPrivate wrong")
	}
}

func TestRouteHelpers(t *testing.T) {
	r := Route{Attrs: &Attrs{
		Path:        Path{1, 2},
		Communities: []Community{MakeCommunity(9, 9), MakeCommunity(8, 8)},
	}}
	if !r.HasCommunity(MakeCommunity(8, 8)) || r.HasCommunity(MakeCommunity(7, 7)) {
		t.Fatal("HasCommunity wrong")
	}
	if r.String() == "" || (Route{}).String() == "" {
		t.Fatal("String empty")
	}
}

// AdjIn returns the route learned from the peer for p, if any.
func (s *Session) AdjIn(p addr.Prefix) (Route, bool) {
	if n := s.speaker.lookup(p); n >= 0 && s.adj.at(n).in != nil {
		return Route{s.adj.at(n).in, s}, true
	}
	return Route{}, false
}

// AdjInLen returns the number of routes learned from the peer.
func (s *Session) AdjInLen() (n int) {
	for i := range s.speaker.covered() {
		if s.adj.at(i).in != nil {
			n++
		}
	}
	return n
}
