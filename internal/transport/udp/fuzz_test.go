package udp

import (
	"encoding/json"
	"net"
	"net/netip"
	"testing"
)

// FuzzSessionControl feeds two control datagrams, the second from the
// first's socket or from another one, to a fresh listening session on a
// bound but unstarted backend. Whatever the bytes: nothing panics,
// OnEstablished fires at most once, no route exists until it has fired
// and every route after leads into the peer's own /64, no body that
// decodes as an ack establishes the session (it never dialed), and once
// a peer is established a datagram from any other address is neither
// provisioned nor answered.
func FuzzSessionControl(f *testing.F) {
	paths, err := ParsePaths("NTT:5ms,GTT:10ms")
	if err != nil {
		f.Fatal(err)
	}
	body := func(typ, site string, edit func(map[string]any)) []byte {
		m := map[string]any{"type": typ, "site": site, "paths": []string{"NTT", "GTT"}}
		if edit != nil {
			edit(m)
		}
		j, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return j
	}
	hello, ack := body("hello", "la", nil), body("ack", "la", nil)
	for _, p := range [][]byte{hello, ack} {
		f.Add(p, []byte(nil), true)
		for _, cut := range []int{0, 1, len(p) / 2, len(p) - 1} {
			f.Add(p[:cut], p, true)
		}
	}
	for _, edit := range []func(map[string]any){
		func(m map[string]any) { m["paths"] = []string{"NTT"} },
		func(m map[string]any) { m["paths"] = []string{"NTT", "Telia"} },
		func(m map[string]any) { m["paths"] = nil },
		// The fields an older hello carried, pointing elsewhere.
		func(m map[string]any) {
			m["switch_addr"], m["endpoints"], m["delay_ns"] = "fd00::1", []string{"fd00::2", "2001:db8::1"}, []int64{1, 2}
		},
		func(m map[string]any) { m["site"] = "" },
		func(m map[string]any) { m["site"] = "ny" },
		func(m map[string]any) { m["type"] = "bye" },
	} {
		f.Add(body("hello", "la", edit), hello, true)
	}
	f.Add(hello, hello, true)
	f.Add(hello, body("hello", "chi", nil), false)
	f.Add(hello, ack, false)
	f.Add(ack, body("ack", "chi", nil), false)

	b, err := New(Config{Name: "ny", Listen: "127.0.0.1:0"})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { b.Close() })
	// Two sockets of the test's own stand in for the peers, so acks land
	// somewhere and nothing leaves the host.
	var peers [2]netip.AddrPort
	for i := range peers {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { c.Close() })
		peers[i] = c.LocalAddr().(*net.UDPAddr).AddrPort()
	}

	f.Fuzz(func(t *testing.T, first, second []byte, sameSource bool) {
		b.Do(func() {
			b.routes = map[netip.Addr]*route{}
			s := NewSession(b, "ny", paths)
			established := 0
			s.OnEstablished = func(*Peer) { established++ }
			s.OnError = func(error) {}
			feed := func(step string, from netip.AddrPort, payload []byte) {
				before := established
				b.deliver(from, append(append([]byte(nil), ctlMagic[:]...), payload...))
				var m helloMsg
				if established > before && json.Unmarshal(payload, &m) == nil && m.Type == "ack" {
					t.Fatalf("%s: an ack established a session that never dialed", step)
				}
				if established > 1 {
					t.Fatalf("%s: OnEstablished fired %d times", step, established)
				}
				if established == 0 && len(b.routes) != 0 {
					t.Fatalf("%s: %d routes added with no peer established", step, len(b.routes))
				}
				if p := s.Peer(); p != nil {
					sw, _ := SiteAddrs(p.Site, 0)
					for dst := range b.routes {
						if !netip.PrefixFrom(sw, 64).Contains(dst) || netip.PrefixFrom(s.SwitchAddr(), 64).Contains(dst) {
							t.Fatalf("%s: route to %v outside peer %q's own /64", step, dst, p.Site)
						}
					}
				}
			}
			feed("first", peers[0], first)
			peer, routes, sent := s.Peer(), len(b.routes), b.ctlTx.Value()+b.wrErr.Value()
			from := peers[0]
			if !sameSource {
				from = peers[1]
			}
			feed("second", from, second)
			if peer != nil && from != peer.Addr {
				if s.Peer() != peer || len(b.routes) != routes || b.ctlTx.Value()+b.wrErr.Value() != sent {
					t.Fatalf("a datagram from %s after establishing with %s was provisioned or answered", from, peer.Addr)
				}
			}
		})
	})
}
