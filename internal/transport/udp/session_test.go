package udp

import (
	"encoding/json"
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
	if b.Name() != "site-x" {
		t.Fatalf("Name() = %q", b.Name())
	}
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
	peerSw, peerEps := SiteAddrs("site-y", 2)
	base := func() helloMsg {
		return helloMsg{
			Type:       "hello",
			Site:       "site-y",
			SwitchAddr: peerSw.String(),
			Paths:      []string{"NTT", "GTT"},
			Endpoints:  []string{peerEps[0].String(), peerEps[1].String()},
			DelayNs:    []int64{10e6, 20e6},
		}
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
		{"inconsistent body", enc(func() helloMsg { m := base(); m.Endpoints = m.Endpoints[:1]; return m }())},
		{"bad switch addr", enc(func() helloMsg { m := base(); m.SwitchAddr = "pigeon"; return m }())},
		{"bad endpoint addr", enc(func() helloMsg { m := base(); m.Endpoints[1] = "pigeon"; return m }())},
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
		sw, eps := SiteAddrs(site, 2)
		j, err := json.Marshal(helloMsg{Type: typ, Site: site, SwitchAddr: sw.String(), Paths: []string{"NTT", "GTT"},
			Endpoints: []string{eps[0].String(), eps[1].String()}, DelayNs: []int64{10e6, 20e6}})
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
