package bgp

import (
	"bytes"
	"net/netip"
	"testing"

	"tango/internal/addr"
)

// FuzzBGPUpdateDecode checks that DecodeMessage never panics and that
// every message it accepts reaches an encoding fixpoint: re-encoding the
// decoded message and decoding that must reproduce the exact same bytes.
// The first encode may legitimately fail — the decoder tolerates updates
// the encoder refuses to produce (e.g. announcements without a next
// hop) — but once a message has a canonical encoding, a second
// decode/encode trip must not change a byte.
func FuzzBGPUpdateDecode(f *testing.F) {
	seed := func(m *Message) []byte {
		b, err := EncodeMessage(m)
		if err != nil {
			panic(err)
		}
		return b
	}
	f.Add(seed(&Message{Keepalive: true}))
	f.Add(seed(&Message{Open: &Open{Version: 4, AS: 65001, HoldTime: 90, RouterID: 0x0a000001}}))
	f.Add(seed(&Message{Notification: &Notification{Code: 6, Subcode: 2, Data: []byte("bye")}}))
	f.Add(seed(&Message{Update: &Update{
		Announced: []addr.Prefix{addr.MustParsePrefix("2001:db8:100::/48")},
		Attrs: Attrs{
			Origin:      OriginIGP,
			Path:        Path{65001, 65002},
			NextHop:     netip.MustParseAddr("2001:db8::1"),
			MED:         10,
			HasMED:      true,
			Communities: []Community{Community(4242)},
		},
	}}))
	f.Add(seed(&Message{Update: &Update{
		Withdrawn: []addr.Prefix{addr.MustParsePrefix("2001:db8:100::/48")},
	}}))
	f.Add(bytes.Repeat([]byte{0xff}, headerLen)) // marker-only garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if n < headerLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc, err := EncodeMessage(m)
		if err != nil {
			return
		}
		m2, n2, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\nencoding: %x", err, enc)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
		}
		kind := func(m *Message) [4]bool {
			return [4]bool{m.Open != nil, m.Update != nil, m.Notification != nil, m.Keepalive}
		}
		if kind(m2) != kind(m) {
			t.Fatalf("round trip changed type: %v -> %v", kind(m), kind(m2))
		}
		enc2, err := EncodeMessage(m2)
		if err != nil {
			t.Fatalf("re-encode of canonical message failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not a fixpoint:\n  %x\n  %x", enc, enc2)
		}
	})
}
