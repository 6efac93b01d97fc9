package topo

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/bgp"
)

// TestFIBFollowsBGP: the AS coupling must install a forwarding route when
// a best path appears, repoint it when the best path changes, and remove
// it on withdrawal.
func TestFIBFollowsBGP(t *testing.T) {
	pfx := addr.MustParsePrefix("2001:db8:1::/48")
	b := NewBuilder(8, Partition{}, []addr.Prefix{pfx})
	col := b.AddAS("col", 10, 1, 0)
	p1 := b.AddAS("p1", 11, 2, 0)
	p2 := b.AddAS("p2", 12, 3, 0)
	dst := b.AddAS("dst", 13, 4, 0)
	b.Wire(col, p1, WireOpts{RelAB: bgp.RelCustomer})
	b.Wire(col, p2, WireOpts{RelAB: bgp.RelCustomer})
	b.Wire(p1, dst, WireOpts{RelAB: bgp.RelCustomer})
	b.Wire(p2, dst, WireOpts{RelAB: bgp.RelCustomer})

	probe := netip.MustParseAddr("2001:db8:1::1")

	dst.Speaker.Originate(pfx, bgp.NoExportTo(12)) // only via p1
	b.Eng().Run(b.Eng().Now() + time.Minute)
	port, _, ok := col.Node.LookupRoute(probe)
	if !ok {
		t.Fatal("no FIB route after best install")
	}
	if port.Peer() != p1.Node {
		t.Fatalf("FIB points at %s, want p1", port.Peer().Name())
	}

	// Flip the pin: FIB must repoint to p2.
	dst.Speaker.Originate(pfx, bgp.NoExportTo(11))
	b.Eng().Run(b.Eng().Now() + 3*time.Minute)
	port, _, ok = col.Node.LookupRoute(probe)
	if !ok {
		t.Fatal("no FIB route after repoint")
	}
	if port.Peer() != p2.Node {
		t.Fatalf("FIB points at %s, want p2", port.Peer().Name())
	}

	// Withdraw: FIB entry must vanish.
	dst.Speaker.Withdraw(pfx)
	b.Eng().Run(b.Eng().Now() + 3*time.Minute)
	if _, _, ok := col.Node.LookupRoute(probe); ok {
		t.Fatal("FIB route survived withdrawal")
	}
}

// TestLocallyOriginatedNeedsNoFIB: an AS's own prefixes are delivered
// locally; the coupling must not try to resolve a next hop for them.
func TestLocallyOriginatedNeedsNoFIB(t *testing.T) {
	pfx := addr.MustParsePrefix("2001:db8:9::/48")
	b := NewBuilder(9, Partition{}, []addr.Prefix{pfx})
	a := b.AddAS("a", 10, 1, 0)
	c := b.AddAS("c", 11, 2, 0)
	b.Wire(a, c, WireOpts{RelAB: bgp.RelPeer})
	a.Speaker.Originate(pfx) // must not panic in applyBest
	b.Eng().Run(b.Eng().Now() + 30*time.Second)
	if _, ok := c.Speaker.Best(pfx); !ok {
		t.Fatal("peer did not learn the prefix")
	}
}
