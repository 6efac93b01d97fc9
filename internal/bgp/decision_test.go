package bgp

import (
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/sim"
)

// TestDecisionMED: with equal local-pref, path length, and origin, the
// lower MED wins.
func TestDecisionMED(t *testing.T) {
	a := &Route{LocalPref: 100, Path: Path{12}, MED: 10}
	b := &Route{LocalPref: 100, Path: Path{11}, MED: 50}
	if !better(a, b) || better(b, a) {
		t.Fatal("MED comparison wrong")
	}
}

// TestDecisionOrigin: lower origin wins at equal local-pref/length.
func TestDecisionOrigin(t *testing.T) {
	a := &Route{LocalPref: 100, Path: Path{1}, Origin: OriginIGP}
	b := &Route{LocalPref: 100, Path: Path{2}, Origin: OriginIncomplete}
	if !better(a, b) || better(b, a) {
		t.Fatal("origin comparison wrong")
	}
}

// TestDecisionStability: pickBest keeps the current best on exact ties
// (no churn from re-running the decision process).
func TestDecisionStability(t *testing.T) {
	a := &Route{LocalPref: 100, Path: Path{1}}
	b := &Route{LocalPref: 100, Path: Path{2}}
	// Identical on every criterion (both local, routerID 0): neither is
	// strictly better.
	if better(a, b) || better(b, a) {
		t.Fatal("tie should not prefer either")
	}
	if pickBest([]*Route{a, b}) != a {
		t.Fatal("pickBest should keep the first (stable)")
	}
}

func TestWithdrawNonOriginatedIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	sp := NewSpeaker(eng, "x", 1, 1)
	sp.Withdraw(addr.MustParsePrefix("2001:db8::/48")) // must not panic
	if _, ok := sp.Originated(addr.MustParsePrefix("2001:db8::/48")); ok {
		t.Fatal("phantom origination")
	}
	sp.Originate(addr.MustParsePrefix("2001:db8::/48"))
	if _, ok := sp.Originated(addr.MustParsePrefix("2001:db8::/48")); !ok {
		t.Fatal("Originated accessor broken")
	}
	if len(sp.BestPrefixes()) != 1 {
		t.Fatalf("BestPrefixes = %v", sp.BestPrefixes())
	}
}

// TestMultiPrefixUpdate: several prefixes in one UPDATE install
// independently and withdraw independently.
func TestMultiPrefixUpdate(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, "a", 100, 1)
	b := NewSpeaker(eng, "b", 200, 2)
	cA, cB := pairCfg(RelProvider, "2001:db8:10::1", "2001:db8:10::2")
	Connect(a, b, cA, cB)
	eng.Run(time.Second)

	u := &Update{
		Announced: prefixes("2001:db8:1::/48", "2001:db8:2::/48", "2001:db8:3::/48"),
		Attrs:     Attrs{Path: Path{100}, NextHop: v6("2001:db8:10::1")},
	}
	bs := b.sessions[0]
	b.handleUpdate(bs, u)
	if len(b.BestPrefixes()) != 3 {
		t.Fatalf("installed %d prefixes", len(b.BestPrefixes()))
	}
	b.handleUpdate(bs, &Update{Withdrawn: prefixes("2001:db8:2::/48")})
	if len(b.BestPrefixes()) != 2 {
		t.Fatalf("withdraw left %d prefixes", len(b.BestPrefixes()))
	}
	if b.Best(addr.MustParsePrefix("2001:db8:2::/48")) != nil {
		t.Fatal("withdrawn prefix still best")
	}
}
