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
	a = NewSpeaker(eng, "a", 100, 1)
	b = NewSpeaker(eng, "b", 200, 2)
	cA, cB := pairCfg(RelProvider, "2001:db8:10::1", "2001:db8:10::2")
	sa, sb = Connect(a, b, cA, cB)
	return eng, a, b, sa, sb
}

// adjOut returns the route s last exported for p, or nil.
func adjOut(s *Session, p addr.Prefix) *Route {
	if n := s.speaker.lookup(p); n >= 0 {
		return s.adj[n].out
	}
	return nil
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

// TestUpdateRoundTripIPv6: the peer learns a route exactly as the sender
// exported it — prefix, path, next hop and communities — and only local
// preference is the receiver's own.
func TestUpdateRoundTripIPv6(t *testing.T) {
	eng, a, _, sa, sb := handover()
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	a.OriginateWithPath(pfx, Path{300, 400}, MakeCommunity(ASVultr, 100), MakeCommunity(300, 7))
	eng.Run(time.Second)
	sent := adjOut(sa, pfx)
	got, _ := sb.AdjIn(pfx)
	if sent == nil || got == nil {
		t.Fatalf("exported %v, learned %v", sent, got)
	}
	if got.Prefix != sent.Prefix || !got.Path.Equal(sent.Path) || got.NextHop != sent.NextHop ||
		!slices.Equal(got.Communities, sent.Communities) {
		t.Fatalf("learned %v %v, exported %v %v", got, got.Communities, sent, sent.Communities)
	}
	if got.LocalPref != DefaultLocalPref(RelCustomer) || got.FromSession != sb {
		t.Fatalf("learned local-pref %d from %v", got.LocalPref, got.FromSession)
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
	if adjOut(sa, pfx) != nil || sb.AdjInLen() != 0 || b.Best(pfx) != nil {
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
		best := b.Best(pfx)
		return best != nil && best.Path.Equal(append(Path{100}, poison...)) && slices.Equal(best.Communities, cs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateHandoverDoesNotAlias: an UPDATE carries the sender's
// Adj-RIB-Out slices, so the receiver must keep copies. Writing through
// the route the peer learned leaves the sender's export as it was.
func TestUpdateHandoverDoesNotAlias(t *testing.T) {
	eng, a, _, sa, sb := handover()
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	a.OriginateWithPath(pfx, Path{300}, MakeCommunity(300, 7))
	eng.Run(time.Second)
	sent := adjOut(sa, pfx)
	got, _ := sb.AdjIn(pfx)
	if sent == nil || got == nil {
		t.Fatalf("exported %v, learned %v", sent, got)
	}
	got.Path[0] = 999
	got.Communities[0] = MakeCommunity(999, 9)
	if !sent.Path.Equal(Path{100, 300}) || !slices.Equal(sent.Communities, []Community{MakeCommunity(300, 7)}) {
		t.Fatalf("sender's export changed with the peer's copy: path [%v], communities %v", sent.Path, sent.Communities)
	}
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
	pre := s.Prepend(ASGTT, 2)
	if !pre.Equal(Path{ASGTT, ASGTT, ASVultr, ASNTT}) {
		t.Fatalf("Prepend = %v", pre)
	}
	// Prepend must not alias the original.
	pre[2] = 0
	if s[0] != ASVultr {
		t.Fatal("Prepend aliased source")
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
	r := &Route{
		Prefix:      addr.MustParsePrefix("2001:db8::/48"),
		Path:        Path{1, 2},
		Communities: []Community{MakeCommunity(9, 9)},
	}
	c := r.Clone()
	c.Path[0] = 99
	c.Communities[0] = MakeCommunity(8, 8)
	c.Communities = append(c.Communities, MakeCommunity(7, 7))
	if r.Path[0] != 1 || len(r.Communities) != 1 || r.Communities[0] != MakeCommunity(9, 9) {
		t.Fatal("Clone aliased route")
	}
	if !c.HasCommunity(MakeCommunity(8, 8)) || c.HasCommunity(MakeCommunity(9, 9)) {
		t.Fatal("HasCommunity wrong")
	}
	sc := c.SortedCommunities()
	if sc[0] > sc[1] {
		t.Fatal("SortedCommunities unsorted")
	}
	if r.String() == "" || (*Route)(nil).String() == "" {
		t.Fatal("String empty")
	}
}
