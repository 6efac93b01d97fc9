package bgp

import (
	"slices"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/sim"
)

// TestDecisionStability: of several fully tied routes the decision
// process keeps the first candidate in session creation order, whichever
// arrived first, and re-running it causes no churn.
func TestDecisionStability(t *testing.T) {
	eng := sim.NewEngine()
	x := NewSpeaker(eng, testTable, "x", 300, 3)
	p1 := NewSpeaker(eng, testTable, "p1", 100, 7) // the same router ID: a full tie
	p2 := NewSpeaker(eng, testTable, "p2", 200, 7)
	cA, cB := pairCfg(RelPeer)
	s1, _ := Connect(x, p1, cA, cB)
	cA, cB = pairCfg(RelPeer)
	s2, _ := Connect(x, p2, cA, cB)

	a := Route{&Attrs{Path: Path{1}}, s1}
	b := Route{&Attrs{Path: Path{2}}, s2}
	// Identical on every criterion (both from peers, so local-pref 100;
	// one hop; router ID 7): neither is strictly better.
	if a.LocalPref() != 100 || better(a, b) || better(b, a) {
		t.Fatal("tie should not prefer either")
	}

	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	changes := 0
	x.OnBestChange = func(addr.Prefix, Route) { changes++ }
	s2.OnSimEvent(announce(pfx, Path{200}))
	s1.OnSimEvent(announce(pfx, Path{100}))
	if best, ok := x.Best(pfx); !ok || best.FromSession != s1 || changes != 2 {
		t.Fatalf("best %v after %d changes, want the first session's route after 2", best, changes)
	}
	x.reselect(x.lookup(pfx))
	if best, _ := x.Best(pfx); best.FromSession != s1 || changes != 2 {
		t.Fatal("re-running the decision process churned a tie")
	}
}

func prefixes(ss ...string) []addr.Prefix {
	out := make([]addr.Prefix, len(ss))
	for i, s := range ss {
		out[i] = addr.MustParsePrefix(s)
	}
	return out
}

func TestWithdrawNonOriginatedIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	sp := NewSpeaker(eng, testTable, "x", 1, 1)
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

// TestMultiPrefixUpdate: several prefixes announced in one flush, an
// UPDATE each, install independently and withdraw independently.
func TestMultiPrefixUpdate(t *testing.T) {
	eng := sim.NewEngine()
	a := NewSpeaker(eng, testTable, "a", 100, 1)
	b := NewSpeaker(eng, testTable, "b", 200, 2)
	cA, cB := pairCfg(RelProvider)
	sa, _ := Connect(a, b, cA, cB)
	eng.Run(time.Second)

	sent := sa.Stats.UpdatesSent
	eng.Schedule(0, func() { // one instant, so one flush
		for _, p := range prefixes("2001:db8:1::/48", "2001:db8:2::/48", "2001:db8:3::/48") {
			a.Originate(p)
		}
	})
	eng.Run(eng.Now() + time.Second)
	if n := sa.Stats.UpdatesSent - sent; n != 3 || len(b.BestPrefixes()) != 3 {
		t.Fatalf("one flush sent %d UPDATEs and installed %d prefixes, want 3 and 3", n, len(b.BestPrefixes()))
	}
	a.Withdraw(addr.MustParsePrefix("2001:db8:2::/48"))
	eng.Run(eng.Now() + time.Second)
	if len(b.BestPrefixes()) != 2 {
		t.Fatalf("withdraw left %d prefixes", len(b.BestPrefixes()))
	}
	if _, ok := b.Best(addr.MustParsePrefix("2001:db8:2::/48")); ok {
		t.Fatal("withdrawn prefix still best")
	}
}

// TestRIBCountsFollowWithdrawals: AdjInLen, Best, BestPrefixes and
// OriginatedPrefixes follow announcements, withdrawals and
// re-announcements over two sessions, and a withdrawal of a prefix the
// speaker never heard of does not number it.
func TestRIBCountsFollowWithdrawals(t *testing.T) {
	eng := sim.NewEngine()
	c := NewSpeaker(eng, testTable, "c", 300, 3)
	a := NewSpeaker(eng, testTable, "a", 100, 1)
	b := NewSpeaker(eng, testTable, "b", 200, 2)
	cA, cB := pairCfg(RelCustomer)
	sa, _ := Connect(c, a, cA, cB)
	cA, cB = pairCfg(RelCustomer)
	sb, _ := Connect(c, b, cA, cB)
	p := prefixes("2001:db8:1::/48", "2001:db8:2::/48", "2001:db8:3::/48", "2001:db8:4::/48")
	from := map[*Session]string{nil: "c", sa: "a", sb: "b"}

	// check compares c's RIBs with the expected state after one step:
	// routes learned on each session, and the origin of each best route
	// (absent: none).
	check := func(step string, inA, inB int, best map[addr.Prefix]string, orig ...addr.Prefix) {
		t.Helper()
		eng.Run(eng.Now() + time.Minute)
		if sa.AdjInLen() != inA || sb.AdjInLen() != inB {
			t.Fatalf("%s: AdjInLen %d/%d, want %d/%d", step, sa.AdjInLen(), sb.AdjInLen(), inA, inB)
		}
		var want []addr.Prefix
		for _, q := range p {
			got := ""
			if r, ok := c.Best(q); ok {
				got = from[r.FromSession]
			}
			if got != best[q] {
				t.Fatalf("%s: best for %v from %q, want %q", step, q, got, best[q])
			}
			if got != "" {
				want = append(want, q)
			}
		}
		if got := c.BestPrefixes(); !slices.Equal(got, want) {
			t.Fatalf("%s: BestPrefixes %v, want %v", step, got, want)
		}
		if got := c.OriginatedPrefixes(); !slices.Equal(got, orig) {
			t.Fatalf("%s: OriginatedPrefixes %v, want %v", step, got, orig)
		}
	}

	a.Originate(p[0])
	a.Originate(p[1])
	b.Originate(p[1])
	b.Originate(p[2])
	c.Originate(p[3])
	check("announce", 2, 2, map[addr.Prefix]string{p[0]: "a", p[1]: "a", p[2]: "b", p[3]: "c"}, p[3])

	a.Withdraw(p[0])
	a.Withdraw(p[1])
	c.Withdraw(p[3])
	check("withdraw", 0, 2, map[addr.Prefix]string{p[1]: "b", p[2]: "b"})

	a.Originate(p[0])
	c.Originate(p[3])
	check("re-announce", 1, 2, map[addr.Prefix]string{p[0]: "a", p[1]: "b", p[2]: "b", p[3]: "c"}, p[3])

	covered := c.covered()
	never := addr.MustParsePrefix("2001:db8:99::/48")
	sa.OnSimEvent(withdraw(never))
	c.Withdraw(never)
	if c.covered() != covered {
		t.Fatalf("withdrawing a never-heard prefix grew the RIB: %d numbers covered, want %d", c.covered(), covered)
	}
	check("never-heard withdrawal", 1, 2, map[addr.Prefix]string{p[0]: "a", p[1]: "b", p[2]: "b", p[3]: "c"}, p[3])
}
