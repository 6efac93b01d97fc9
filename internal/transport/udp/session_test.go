package udp

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"slices"
	"testing"

	"tango/internal/obs"
)

// TestSessionRejectsBadHandshakes drives onControl directly with every
// well-formed body that fails the handshake: each must fire OnError and
// none may establish. Accessors are pinned along the way.
func TestSessionRejectsBadHandshakes(t *testing.T) {
	b := newBackend(t, "site-x")
	if b.Eng() == nil {
		t.Fatal("Eng() returned nil")
	}

	paths, err := ParsePaths("NTT:10ms,GTT:20ms")
	if err != nil {
		t.Fatal(err)
	}
	var errs []error
	var sess *Session
	b.Do(func() {
		sess = NewSession(b, "site-x", paths)
		sess.OnError = func(e error) { errs = append(errs, e) }
	})
	sw, eps := SiteAddrs("site-x", 2)
	if sess.SwitchAddr() != sw {
		t.Fatalf("SwitchAddr() = %v, want %v", sess.SwitchAddr(), sw)
	}
	if !slices.Equal(sess.Endpoints(), eps) {
		t.Fatalf("Endpoints() = %v, want %v", sess.Endpoints(), eps)
	}

	// A well-formed peer body to mutate per case.
	base := func() helloMsg {
		return helloMsg{Type: "hello", Site: "site-y", Paths: []string{"NTT", "GTT"}}
	}
	enc := func(m helloMsg) []byte {
		j, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	from := netip.MustParseAddrPort("127.0.0.1:9")

	cases := []struct {
		name    string
		payload []byte
	}{
		{"own site name", enc(func() helloMsg { m := base(); m.Site = "site-x"; return m }())},
		{"path count mismatch", enc(func() helloMsg { m := base(); m.Paths = m.Paths[:1]; return m }())},
		{"path name mismatch", enc(func() helloMsg { m := base(); m.Paths = []string{"NTT", "Telia"}; return m }())},
	}
	for _, tc := range cases {
		before := len(errs)
		b.Do(func() { sess.onControl(from, tc.payload) })
		if len(errs) != before+1 {
			t.Errorf("%s: OnError fired %d times, want 1", tc.name, len(errs)-before)
		}
		if sess.Peer() != nil {
			t.Fatalf("%s: session established from a bad handshake", tc.name)
		}
	}

	// The ack branch rejects bad bodies through the same validator; an
	// ack is only read from the address the session dialed.
	before := len(errs)
	b.Do(func() {
		sess.Dial(from)
		sess.onControl(from, enc(func() helloMsg { m := base(); m.Type = "ack"; m.Site = "site-x"; return m }()))
	})
	if len(errs) != before+1 || sess.Peer() != nil {
		t.Fatal("bad ack body must fail and not establish")
	}

	// A valid hello after all the rejects still establishes.
	b.Do(func() { sess.onControl(from, enc(base())) })
	if sess.Peer() == nil || sess.Peer().Site != "site-y" {
		t.Fatalf("valid hello did not establish: %+v", sess.Peer())
	}
}

// TestSessionCountsGarbageControl: a control datagram whose body is not
// JSON, or is JSON of no handshake type, is counted and dropped. A
// stranger sending a thousand of them moves one counter and never
// reaches OnError, which tangod prints to stderr.
func TestSessionCountsGarbageControl(t *testing.T) {
	reg := obs.NewRegistry()
	b, err := New(Config{Name: "site-x", Listen: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	paths, err := ParsePaths("NTT:10ms,GTT:20ms")
	if err != nil {
		t.Fatal(err)
	}
	onError := 0
	rng := rand.New(rand.NewPCG(1, 2))
	from := netip.MustParseAddrPort("127.0.0.1:9")
	b.Do(func() {
		sess := NewSession(b, "site-x", paths)
		sess.OnError = func(error) { onError++ }
		for i := range 1000 {
			var body []byte
			switch i % 4 {
			case 0:
				body = []byte(`{"type":"bye","site":"site-y"}`)
			case 1:
				body = []byte(`{"type":`)
			case 2:
				body = nil
			default:
				body = make([]byte, rng.IntN(64))
				for j := range body {
					body[j] = byte(rng.Uint32())
				}
			}
			b.deliver(from, append(append([]byte(nil), ctlMagic[:]...), body...))
		}
		if sess.Peer() != nil {
			t.Error("garbage established a peer")
		}
	})
	snap := reg.Snapshot()
	if got := snap[`tango_transport_ctl_rejected_total{site="site-x"}`]; got != 1000 {
		t.Errorf("ctl_rejected = %v, want 1000 (snapshot %v)", got, snap)
	}
	if got := snap[`tango_transport_ctl_rx_total{site="site-x"}`]; got != 1000 {
		t.Errorf("ctl_rx = %v, want 1000", got)
	}
	if onError != 0 {
		t.Errorf("OnError fired %d times, want 0", onError)
	}
}

// TestSessionIgnoresUnsolicitedAck: an ack establishes only a session
// that dialed, and only from the dialed address; a hello from anyone but
// the established peer is not answered. Every other such datagram is
// counted as rejected and never reaches OnError or installs a route.
func TestSessionIgnoresUnsolicitedAck(t *testing.T) {
	reg := obs.NewRegistry()
	b, err := New(Config{Name: "site-x", Listen: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	paths, err := ParsePaths("NTT:10ms,GTT:20ms")
	if err != nil {
		t.Fatal(err)
	}
	// Two sockets of the test's own stand in for the dialed peer and a
	// stranger, so hellos and acks land somewhere and nothing leaves the
	// host.
	var peer, stranger netip.AddrPort
	for _, ap := range []*netip.AddrPort{&peer, &stranger} {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		*ap = c.LocalAddr().(*net.UDPAddr).AddrPort()
	}
	body := func(typ, site string) []byte {
		j, err := json.Marshal(helloMsg{Type: typ, Site: site, Paths: []string{"NTT", "GTT"}})
		if err != nil {
			t.Fatal(err)
		}
		return append(append([]byte(nil), ctlMagic[:]...), j...)
	}
	onError := 0
	b.Do(func() {
		s := NewSession(b, "site-x", paths)
		s.OnError = func(error) { onError++ }

		b.deliver(peer, body("ack", "site-y"))
		if s.Peer() != nil || len(b.routes) != 0 {
			t.Fatal("a session that never dialed established from an ack")
		}

		s.Dial(peer)
		b.deliver(stranger, body("ack", "site-z"))
		if s.Peer() != nil || len(b.routes) != 0 {
			t.Fatal("an ack from an address never dialed established the session")
		}

		b.deliver(peer, body("ack", "site-y"))
		if s.Peer() == nil || s.Peer().Site != "site-y" {
			t.Fatalf("the dialed peer's ack did not establish: %+v", s.Peer())
		}
		routes, sent := len(b.routes), b.ctlTx.Value()
		b.deliver(stranger, body("hello", "site-z"))
		if s.Peer().Site != "site-y" || len(b.routes) != routes || b.ctlTx.Value() != sent {
			t.Fatal("a hello from a non-peer after establishment was provisioned or answered")
		}
	})
	if got := reg.Snapshot()[`tango_transport_ctl_rejected_total{site="site-x"}`]; got != 3 {
		t.Errorf("ctl_rejected = %v, want 3 (two unsolicited acks, one stranger's hello)", got)
	}
	if onError != 0 {
		t.Errorf("OnError fired %d times, want 0", onError)
	}
}

// TestSessionDerivesPeerAddrs: the peer's addresses come from its site
// name alone. A hello that still carries the old body's switch_addr,
// endpoints and delay_ns, pointing somewhere else, installs routes to
// SiteAddrs(peer, n) and nowhere else, and the peer's paths carry names
// only.
func TestSessionDerivesPeerAddrs(t *testing.T) {
	b := newBackend(t, "site-x")
	paths, err := ParsePaths("NTT:10ms,GTT:20ms")
	if err != nil {
		t.Fatal(err)
	}
	stale := []byte(`{"type":"hello","site":"site-y","paths":["NTT","GTT"],` +
		`"switch_addr":"fd00:bad::1","endpoints":["fd00:bad::2","2001:db8::1"],"delay_ns":[1,2]}`)
	var peer *Peer
	b.Do(func() {
		s := NewSession(b, "site-x", paths)
		s.OnEstablished = func(p *Peer) { peer = p }
		s.onControl(netip.MustParseAddrPort("127.0.0.1:9"), stale)
	})
	wantSw, wantEps := SiteAddrs("site-y", 2)
	if peer == nil || peer.SwitchAddr != wantSw || !slices.Equal(peer.Endpoints, wantEps) {
		t.Fatalf("peer = %+v, want switch %v, endpoints %v", peer, wantSw, wantEps)
	}
	for i, p := range peer.Paths {
		if p != (PathSpec{ID: uint8(i + 1), Name: paths[i].Name}) {
			t.Errorf("peer path %d = %+v, want a name and no delay", i, p)
		}
	}
	b.Do(func() {
		if len(b.routes) != len(wantEps) {
			t.Errorf("%d routes, want %d", len(b.routes), len(wantEps))
		}
		for _, ep := range wantEps {
			if b.routes[ep] == nil {
				t.Errorf("no route to derived endpoint %v", ep)
			}
		}
	})
}

// TestSessionRefusesPeerInOurSlash64: a peer whose site name derives our
// own /64 would have our endpoints for its own, so the handshake refuses
// it through OnError and installs no route. Names collide only through
// the 32-bit hash, so a birthday search over about 10^5 names finds a
// pair.
func TestSessionRefusesPeerInOurSlash64(t *testing.T) {
	ours, theirs := collidingSites(t)
	b := newBackend(t, ours)
	paths, err := ParsePaths("NTT:10ms,GTT:20ms")
	if err != nil {
		t.Fatal(err)
	}
	// The body an older peer sent, addresses included, so the refusal
	// cannot come from a missing field.
	sw, eps := SiteAddrs(theirs, 2)
	hello, err := json.Marshal(map[string]any{"type": "hello", "site": theirs, "paths": []string{"NTT", "GTT"},
		"switch_addr": sw.String(), "endpoints": []string{eps[0].String(), eps[1].String()}, "delay_ns": []int64{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	var errs []error
	b.Do(func() {
		s := NewSession(b, ours, paths)
		s.OnEstablished = func(*Peer) { t.Error("established with a peer in our /64") }
		s.OnError = func(e error) { errs = append(errs, e) }
		s.onControl(netip.MustParseAddrPort("127.0.0.1:9"), hello)
		if len(b.routes) != 0 {
			t.Errorf("%d routes installed for a refused peer", len(b.routes))
		}
	})
	if len(errs) != 1 {
		t.Fatalf("OnError fired %d times for %q against %q, want 1", len(errs), theirs, ours)
	}
}

// collidingSites returns two distinct site names whose SiteAddrs share a
// /64: the first repeat in a birthday search. Names that differ only in a
// decimal counter's last bytes never collide under FNV-1a, so the counter
// is scrambled (Knuth's multiplicative hash) before it is printed.
func collidingSites(t *testing.T) (string, string) {
	t.Helper()
	seen := make(map[netip.Prefix]string)
	for i := range uint64(1 << 20) {
		name := fmt.Sprintf("site-%x", i*2654435761)
		sw, _ := SiteAddrs(name, 0)
		p := netip.PrefixFrom(sw, 64).Masked()
		if prev, ok := seen[p]; ok {
			return prev, name
		}
		seen[p] = name
	}
	t.Fatal("no two site names share a /64")
	return "", ""
}
