package udp

import (
	"encoding/json"
	"net/netip"
	"slices"
	"testing"
)

// TestSessionRejectsBadHandshakes drives onControl directly with every
// malformed handshake shape: each must fire OnError and none may
// establish. Accessors are pinned along the way.
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
		{"not json", []byte("{nope")},
		{"unknown type", enc(func() helloMsg { m := base(); m.Type = "bye"; return m }())},
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

	// The ack branch rejects bad bodies through the same validator.
	before := len(errs)
	b.Do(func() {
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
