package bgp

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"tango/internal/addr"
)

func TestOpenRoundTrip(t *testing.T) {
	m := &Message{Open: &Open{Version: 4, AS: ASVultr, HoldTime: 90, RouterID: 0x0a000001}}
	raw, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) {
		t.Fatalf("consumed %d of %d", n, len(raw))
	}
	if *got.Open != *m.Open {
		t.Fatalf("open = %+v", got.Open)
	}
	if got.Type() != MsgOpen {
		t.Fatalf("Type = %d", got.Type())
	}
}

func TestKeepaliveAndNotification(t *testing.T) {
	raw, err := EncodeMessage(&Message{Keepalive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != headerLen {
		t.Fatalf("keepalive length %d", len(raw))
	}
	got, _, err := DecodeMessage(raw)
	if err != nil || !got.Keepalive {
		t.Fatalf("keepalive decode: %v %v", got, err)
	}

	n := &Notification{Code: 6, Subcode: 2, Data: []byte{1, 2}}
	raw, err = EncodeMessage(&Message{Notification: n})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = DecodeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Notification.Code != 6 || got.Notification.Subcode != 2 || len(got.Notification.Data) != 2 {
		t.Fatalf("notification = %+v", got.Notification)
	}
	if got.Notification.Error() == "" {
		t.Fatal("empty notification error")
	}
}

func TestUpdateRoundTripIPv6(t *testing.T) {
	u := &Update{
		Announced: []addr.Prefix{
			addr.MustParsePrefix("2001:db8:1::/48"),
			addr.MustParsePrefix("2001:db8:2::/48"),
		},
		Withdrawn: []addr.Prefix{addr.MustParsePrefix("2001:db8:dead::/48")},
		Attrs: Attrs{
			Origin:      OriginIGP,
			Path:        Path{ASVultr, ASNTT},
			NextHop:     netip.MustParseAddr("2001:db8:ffff::1"),
			MED:         10,
			HasMED:      true,
			Communities: []Community{NoExportTo(ASNTT), MakeCommunity(ASVultr, 100)},
		},
	}
	raw, err := EncodeMessage(&Message{Update: u})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	g := got.Update
	if !reflect.DeepEqual(g.Announced, u.Announced) {
		t.Fatalf("announced = %v", g.Announced)
	}
	if !reflect.DeepEqual(g.Withdrawn, u.Withdrawn) {
		t.Fatalf("withdrawn = %v", g.Withdrawn)
	}
	if !g.Attrs.Path.Equal(u.Attrs.Path) || g.Attrs.NextHop != u.Attrs.NextHop {
		t.Fatalf("attrs = %+v", g.Attrs)
	}
	if !g.Attrs.HasMED || g.Attrs.MED != 10 {
		t.Fatalf("MED = %v %d", g.Attrs.HasMED, g.Attrs.MED)
	}
	if !reflect.DeepEqual(g.Attrs.Communities, u.Attrs.Communities) {
		t.Fatalf("communities = %v", g.Attrs.Communities)
	}
}

func TestUpdateMixedFamilies(t *testing.T) {
	// Sessions peer over IPv6, so only MP_REACH/MP_UNREACH carry NLRI: an
	// IPv4 prefix is refused whether announced (alone or beside an IPv6
	// one, with either next-hop family) or withdrawn, and so is an IPv4
	// next hop.
	v4, v6 := addr.MustParsePrefix("10.0.0.0/8"), addr.MustParsePrefix("2001:db8::/32")
	for name, u := range map[string]*Update{
		"announce v4": {Announced: []addr.Prefix{v4}, Attrs: Attrs{NextHop: netip.MustParseAddr("10.0.0.1")}},
		"mixed":       {Announced: []addr.Prefix{v6, v4}, Attrs: Attrs{NextHop: netip.MustParseAddr("2001:db8:ffff::1")}},
		"withdraw v4": {Withdrawn: []addr.Prefix{v6, v4}},
		"v4 next hop": {Announced: []addr.Prefix{v6}, Attrs: Attrs{NextHop: netip.MustParseAddr("10.0.0.1")}},
	} {
		if _, err := EncodeMessage(&Message{Update: u}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestUpdateLongAttributes: LOCAL_PREF round-trips, an attribute longer
// than 255 bytes takes the extended-length form, and a message past 4 096
// bytes is refused.
func TestUpdateLongAttributes(t *testing.T) {
	u := &Update{
		Announced: []addr.Prefix{addr.MustParsePrefix("2001:db8:1::/48")},
		Attrs: Attrs{
			NextHop:      netip.MustParseAddr("2001:db8:ffff::1"),
			LocalPref:    200,
			HasLocalPref: true,
		},
	}
	for i := 0; i < 100; i++ { // 400 bytes of COMMUNITIES
		u.Attrs.Communities = append(u.Attrs.Communities, MakeCommunity(ASN(i), 1))
	}
	raw, err := EncodeMessage(&Message{Update: u})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if a := got.Update.Attrs; !a.HasLocalPref || a.LocalPref != 200 || !reflect.DeepEqual(a.Communities, u.Attrs.Communities) {
		t.Fatalf("attrs = %+v", a)
	}
	for i := 0; i < 1000; i++ {
		u.Attrs.Communities = append(u.Attrs.Communities, MakeCommunity(ASN(i), 2))
	}
	if _, err := EncodeMessage(&Message{Update: u}); err == nil {
		t.Fatal("message over 4096 bytes accepted")
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	u := &Update{Withdrawn: []addr.Prefix{
		addr.MustParsePrefix("2001:db8:1::/48"),
		addr.MustParsePrefix("2001:db8::/32"),
	}}
	raw, err := EncodeMessage(&Message{Update: u})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Update.Withdrawn) != 2 || len(got.Update.Announced) != 0 {
		t.Fatalf("update = %+v", got.Update)
	}
}

func TestDecodeErrors(t *testing.T) {
	raw, _ := EncodeMessage(&Message{Keepalive: true})
	// Bad marker.
	bad := append([]byte{}, raw...)
	bad[0] = 0
	if _, _, err := DecodeMessage(bad); err == nil {
		t.Fatal("bad marker accepted")
	}
	// Bad type.
	bad = append([]byte{}, raw...)
	bad[18] = 99
	if _, _, err := DecodeMessage(bad); err == nil {
		t.Fatal("unknown type accepted")
	}
	// Short.
	if _, _, err := DecodeMessage(raw[:10]); err == nil {
		t.Fatal("short message accepted")
	}
	// Wrong version.
	o, _ := EncodeMessage(&Message{Open: &Open{Version: 3, AS: 1, RouterID: 1}})
	if _, _, err := DecodeMessage(o); err == nil {
		t.Fatal("version 3 accepted")
	}
	// Classic IPv4 withdrawn routes or NLRI: 10.0.0.0/8 after an empty
	// attribute block, or as the withdrawn-routes field.
	for name, body := range map[string][]byte{
		"withdrawn": {0, 2, 8, 10, 0, 0},
		"nlri":      {0, 0, 0, 0, 8, 10},
	} {
		u := append([]byte{}, raw...)
		u[18] = MsgUpdate
		u = append(u, body...)
		binary.BigEndian.PutUint16(u[16:18], uint16(len(u)))
		if _, _, err := DecodeMessage(u); err == nil {
			t.Fatalf("IPv4 %s accepted", name)
		}
	}
}

// Property: IPv6 UPDATE encoding round-trips arbitrary path/community
// combinations.
func TestUpdateRoundTripProperty(t *testing.T) {
	f := func(pathRaw []uint16, comms []uint32, subIdx uint16, med uint32) bool {
		if len(pathRaw) > 30 {
			pathRaw = pathRaw[:30]
		}
		if len(comms) > 30 {
			comms = comms[:30]
		}
		var path Path
		for _, a := range pathRaw {
			path = append(path, ASN(a))
		}
		var cs []Community
		for _, c := range comms {
			cs = append(cs, Community(c))
		}
		parent := addr.MustParsePrefix("2001:db8::/32")
		pfx, err := parent.Subnet(48, int(subIdx))
		if err != nil {
			return false
		}
		u := &Update{
			Announced: []addr.Prefix{pfx},
			Attrs: Attrs{
				Path:        path,
				NextHop:     netip.MustParseAddr("2001:db8:ffff::1"),
				MED:         med,
				HasMED:      med != 0,
				Communities: cs,
			},
		}
		raw, err := EncodeMessage(&Message{Update: u})
		if err != nil {
			return false
		}
		got, n, err := DecodeMessage(raw)
		if err != nil || n != len(raw) {
			return false
		}
		g := got.Update
		if len(g.Announced) != 1 || g.Announced[0] != pfx {
			return false
		}
		if !g.Attrs.Path.Equal(path) {
			return false
		}
		if len(g.Attrs.Communities) != len(cs) {
			return false
		}
		for i := range cs {
			if g.Attrs.Communities[i] != cs[i] {
				return false
			}
		}
		return g.Attrs.MED == med || !u.Attrs.HasMED
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: prefix encoding round-trips for arbitrary prefix lengths.
func TestPrefixCodecProperty(t *testing.T) {
	f := func(ipRaw [16]byte, bits uint8) bool {
		b := int(bits) % 129
		ipRaw[0], ipRaw[1] = 0x20, 0x01 // keep it a plausible global
		p, err := addr.PrefixFrom(netip.AddrFrom16(ipRaw), b)
		if err != nil {
			return false
		}
		enc := encodePrefixes([]addr.Prefix{p})
		dec, err := decodePrefixes(enc)
		if err != nil || len(dec) != 1 {
			return false
		}
		return dec[0] == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCommunityHelpers(t *testing.T) {
	c := MakeCommunity(ASVultr, 6000)
	if c.ASN() != ASVultr || c.Value() != 6000 {
		t.Fatalf("community parts: %v %v", c.ASN(), c.Value())
	}
	if c.String() != "20473:6000" {
		t.Fatalf("String = %q", c.String())
	}
	if CommunityNoExport.String() != "no-export" {
		t.Fatalf("well-known String = %q", CommunityNoExport.String())
	}
	if NoExportTo(ASNTT) != MakeCommunity(64600, 2914) {
		t.Fatal("NoExportTo wrong")
	}
	if PrependTo(ASNTT, 2) != MakeCommunity(64602, 2914) {
		t.Fatal("PrependTo wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PrependTo(_, 5) did not panic")
		}
	}()
	PrependTo(ASNTT, 5)
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
	for _, o := range []Origin{OriginIGP, OriginEGP, OriginIncomplete, Origin(7)} {
		if o.String() == "" {
			t.Fatal("Origin.String empty")
		}
	}
}
