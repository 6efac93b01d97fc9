package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"tango/internal/addr"
)

// Message types (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
)

// Path attribute type codes.
const (
	attrOrigin      = 1
	attrASPath      = 2
	attrMED         = 4
	attrLocalPref   = 5
	attrCommunities = 8
	attrMPReach     = 14
	attrMPUnreach   = 15
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtLen     = 0x10
)

const (
	headerLen   = 19
	markerLen   = 16
	maxMsgLen   = 4096
	afiIPv6     = 2
	safiUnicast = 1
)

// Message is a decoded BGP message: exactly one of the pointers is set.
type Message struct {
	Open         *Open
	Update       *Update
	Notification *Notification
	Keepalive    bool
}

// Type returns the message type code.
func (m *Message) Type() int {
	switch {
	case m.Open != nil:
		return MsgOpen
	case m.Update != nil:
		return MsgUpdate
	case m.Notification != nil:
		return MsgNotification
	default:
		return MsgKeepalive
	}
}

// Open is the session-establishment message.
type Open struct {
	Version  uint8
	AS       ASN
	HoldTime uint16 // seconds
	RouterID uint32
}

// Notification reports a fatal session error.
type Notification struct {
	Code, Subcode uint8
	Data          []byte
}

func (n *Notification) Error() string {
	return fmt.Sprintf("bgp: notification %d/%d", n.Code, n.Subcode)
}

// Attrs are the path attributes shared by all NLRI in one UPDATE.
type Attrs struct {
	Origin       Origin
	Path         Path
	NextHop      netip.Addr
	MED          uint32
	HasMED       bool
	LocalPref    uint32
	HasLocalPref bool
	Communities  []Community
}

// Update announces and/or withdraws IPv6 prefixes, which ride
// MP_REACH_NLRI/MP_UNREACH_NLRI (RFC 4760). Every session in the
// simulator peers over IPv6 link addresses, so the classic IPv4
// withdrawn-routes and NLRI fields stay empty: the encoder rejects an
// IPv4 prefix and the decoder rejects a message that fills either field.
type Update struct {
	Withdrawn []addr.Prefix
	Announced []addr.Prefix
	Attrs     Attrs
}

// EncodeMessage serializes any message with its header.
func EncodeMessage(m *Message) ([]byte, error) {
	var body []byte
	var typ byte
	switch {
	case m.Open != nil:
		typ = MsgOpen
		body = encodeOpen(m.Open)
	case m.Update != nil:
		typ = MsgUpdate
		var err error
		body, err = encodeUpdate(m.Update)
		if err != nil {
			return nil, err
		}
	case m.Notification != nil:
		typ = MsgNotification
		n := m.Notification
		body = append([]byte{n.Code, n.Subcode}, n.Data...)
	default:
		typ = MsgKeepalive
	}
	total := headerLen + len(body)
	if total > maxMsgLen {
		return nil, fmt.Errorf("bgp: message length %d exceeds %d", total, maxMsgLen)
	}
	out := make([]byte, total)
	for i := 0; i < markerLen; i++ {
		out[i] = 0xff
	}
	binary.BigEndian.PutUint16(out[16:18], uint16(total))
	out[18] = typ
	copy(out[headerLen:], body)
	return out, nil
}

// DecodeMessage parses one message from the front of data, returning the
// message and the number of bytes consumed.
func DecodeMessage(data []byte) (*Message, int, error) {
	if len(data) < headerLen {
		return nil, 0, errors.New("bgp: short header")
	}
	for i := 0; i < markerLen; i++ {
		if data[i] != 0xff {
			return nil, 0, errors.New("bgp: bad marker")
		}
	}
	length := int(binary.BigEndian.Uint16(data[16:18]))
	if length < headerLen || length > maxMsgLen || len(data) < length {
		return nil, 0, fmt.Errorf("bgp: bad length %d", length)
	}
	body := data[headerLen:length]
	m := &Message{}
	switch data[18] {
	case MsgOpen:
		o, err := decodeOpen(body)
		if err != nil {
			return nil, 0, err
		}
		m.Open = o
	case MsgUpdate:
		u, err := decodeUpdate(body)
		if err != nil {
			return nil, 0, err
		}
		m.Update = u
	case MsgNotification:
		if len(body) < 2 {
			return nil, 0, errors.New("bgp: short notification")
		}
		m.Notification = &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, 0, errors.New("bgp: keepalive with body")
		}
		m.Keepalive = true
	default:
		return nil, 0, fmt.Errorf("bgp: unknown message type %d", data[18])
	}
	return m, length, nil
}

func encodeOpen(o *Open) []byte {
	b := make([]byte, 10)
	b[0] = o.Version
	binary.BigEndian.PutUint16(b[1:3], uint16(o.AS))
	binary.BigEndian.PutUint16(b[3:5], o.HoldTime)
	binary.BigEndian.PutUint32(b[5:9], o.RouterID)
	b[9] = 0 // no optional parameters
	return b
}

func decodeOpen(b []byte) (*Open, error) {
	if len(b) < 10 {
		return nil, errors.New("bgp: short OPEN")
	}
	o := &Open{
		Version:  b[0],
		AS:       ASN(binary.BigEndian.Uint16(b[1:3])),
		HoldTime: binary.BigEndian.Uint16(b[3:5]),
		RouterID: binary.BigEndian.Uint32(b[5:9]),
	}
	if o.Version != 4 {
		return nil, fmt.Errorf("bgp: unsupported version %d", o.Version)
	}
	return o, nil
}

func encodeUpdate(u *Update) ([]byte, error) {
	for _, ps := range [][]addr.Prefix{u.Withdrawn, u.Announced} {
		for _, p := range ps {
			if !p.Is6() {
				return nil, fmt.Errorf("bgp: %v is not an IPv6 prefix", p)
			}
		}
	}

	// Empty classic withdrawn-routes field.
	out := []byte{0, 0}

	// Path attributes.
	var attrs []byte
	if len(u.Announced) > 0 {
		attrs = append(attrs, encodeAttr(flagTransitive, attrOrigin, []byte{byte(u.Attrs.Origin)})...)
		attrs = append(attrs, encodeAttr(flagTransitive, attrASPath, encodeASPath(u.Attrs.Path))...)
		if u.Attrs.HasMED {
			var v [4]byte
			binary.BigEndian.PutUint32(v[:], u.Attrs.MED)
			attrs = append(attrs, encodeAttr(flagOptional, attrMED, v[:])...)
		}
		if u.Attrs.HasLocalPref {
			var v [4]byte
			binary.BigEndian.PutUint32(v[:], u.Attrs.LocalPref)
			attrs = append(attrs, encodeAttr(flagTransitive, attrLocalPref, v[:])...)
		}
		if len(u.Attrs.Communities) > 0 {
			v := make([]byte, 4*len(u.Attrs.Communities))
			for i, c := range u.Attrs.Communities {
				binary.BigEndian.PutUint32(v[i*4:], uint32(c))
			}
			attrs = append(attrs, encodeAttr(flagOptional|flagTransitive, attrCommunities, v)...)
		}
		if !u.Attrs.NextHop.Is6() || u.Attrs.NextHop.Is4In6() {
			return nil, errors.New("bgp: IPv6 NLRI requires IPv6 next hop")
		}
		// Layout: AFI(2) SAFI(1) NHLen(1) NH(16) Reserved(1) NLRI.
		nh := u.Attrs.NextHop.As16()
		body := make([]byte, 0, 21+len(u.Announced)*17)
		body = binary.BigEndian.AppendUint16(body, afiIPv6)
		body = append(body, safiUnicast, 16)
		body = append(body, nh[:]...)
		body = append(body, 0)
		body = append(body, encodePrefixes(u.Announced)...)
		attrs = append(attrs, encodeAttr(flagOptional, attrMPReach, body)...)
	}
	if len(u.Withdrawn) > 0 {
		body := make([]byte, 0, 3+len(u.Withdrawn)*17)
		body = binary.BigEndian.AppendUint16(body, afiIPv6)
		body = append(body, safiUnicast)
		body = append(body, encodePrefixes(u.Withdrawn)...)
		attrs = append(attrs, encodeAttr(flagOptional, attrMPUnreach, body)...)
	}
	out = binary.BigEndian.AppendUint16(out, uint16(len(attrs)))
	return append(out, attrs...), nil
}

func encodeAttr(flags, typ byte, val []byte) []byte {
	if len(val) > 255 {
		out := make([]byte, 0, 4+len(val))
		out = append(out, flags|flagExtLen, typ)
		out = binary.BigEndian.AppendUint16(out, uint16(len(val)))
		return append(out, val...)
	}
	out := make([]byte, 0, 3+len(val))
	out = append(out, flags, typ, byte(len(val)))
	return append(out, val...)
}

func encodeASPath(p Path) []byte {
	if len(p) == 0 {
		return nil
	}
	out := make([]byte, 0, 2+2*len(p))
	out = append(out, 2 /* AS_SEQUENCE */, byte(len(p)))
	for _, a := range p {
		out = binary.BigEndian.AppendUint16(out, uint16(a))
	}
	return out
}

func encodePrefixes(ps []addr.Prefix) []byte {
	var out []byte
	for _, p := range ps {
		bits := p.Bits()
		out = append(out, byte(bits))
		b := p.Addr().As16()
		out = append(out, b[:(bits+7)/8]...)
	}
	return out
}

func decodePrefixes(b []byte) ([]addr.Prefix, error) {
	var out []addr.Prefix
	for len(b) > 0 {
		bits := int(b[0])
		if bits > 128 {
			return nil, fmt.Errorf("bgp: prefix length %d", bits)
		}
		nb := (bits + 7) / 8
		if len(b) < 1+nb {
			return nil, errors.New("bgp: truncated NLRI")
		}
		var raw [16]byte
		copy(raw[:], b[1:1+nb])
		p, err := addr.PrefixFrom(netip.AddrFrom16(raw), bits)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		b = b[1+nb:]
	}
	return out, nil
}

func decodeUpdate(b []byte) (*Update, error) {
	u := &Update{}
	if len(b) < 2 {
		return nil, errors.New("bgp: short UPDATE")
	}
	if binary.BigEndian.Uint16(b[0:2]) != 0 {
		return nil, errors.New("bgp: IPv4 withdrawn routes unsupported")
	}
	b = b[2:]
	if len(b) < 2 {
		return nil, errors.New("bgp: missing attribute length")
	}
	alen := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	if len(b) < alen {
		return nil, errors.New("bgp: truncated attributes")
	}
	attrs := b[:alen]
	if len(b) > alen {
		return nil, errors.New("bgp: IPv4 NLRI unsupported")
	}

	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return nil, errors.New("bgp: truncated attribute header")
		}
		flags, typ := attrs[0], attrs[1]
		var vlen, off int
		if flags&flagExtLen != 0 {
			if len(attrs) < 4 {
				return nil, errors.New("bgp: truncated extended attribute")
			}
			vlen = int(binary.BigEndian.Uint16(attrs[2:4]))
			off = 4
		} else {
			vlen = int(attrs[2])
			off = 3
		}
		if len(attrs) < off+vlen {
			return nil, errors.New("bgp: truncated attribute value")
		}
		val := attrs[off : off+vlen]
		switch typ {
		case attrOrigin:
			if vlen != 1 {
				return nil, errors.New("bgp: bad ORIGIN length")
			}
			u.Attrs.Origin = Origin(val[0])
		case attrASPath:
			p, err := decodeASPath(val)
			if err != nil {
				return nil, err
			}
			u.Attrs.Path = p
		case attrMED:
			if vlen != 4 {
				return nil, errors.New("bgp: bad MED length")
			}
			u.Attrs.MED = binary.BigEndian.Uint32(val)
			u.Attrs.HasMED = true
		case attrLocalPref:
			if vlen != 4 {
				return nil, errors.New("bgp: bad LOCAL_PREF length")
			}
			u.Attrs.LocalPref = binary.BigEndian.Uint32(val)
			u.Attrs.HasLocalPref = true
		case attrCommunities:
			if vlen%4 != 0 {
				return nil, errors.New("bgp: bad COMMUNITIES length")
			}
			for i := 0; i < vlen; i += 4 {
				u.Attrs.Communities = append(u.Attrs.Communities, Community(binary.BigEndian.Uint32(val[i:i+4])))
			}
		case attrMPReach:
			if vlen < 5 {
				return nil, errors.New("bgp: short MP_REACH")
			}
			afi := binary.BigEndian.Uint16(val[0:2])
			safi := val[2]
			nhLen := int(val[3])
			if afi != afiIPv6 || safi != safiUnicast {
				return nil, fmt.Errorf("bgp: unsupported AFI/SAFI %d/%d", afi, safi)
			}
			if nhLen != 16 || len(val) < 4+nhLen+1 {
				return nil, errors.New("bgp: bad MP_REACH next hop")
			}
			u.Attrs.NextHop = netip.AddrFrom16([16]byte(val[4 : 4+16]))
			rest := val[4+nhLen+1:]
			ps, err := decodePrefixes(rest)
			if err != nil {
				return nil, err
			}
			u.Announced = append(u.Announced, ps...)
		case attrMPUnreach:
			if vlen < 3 {
				return nil, errors.New("bgp: short MP_UNREACH")
			}
			afi := binary.BigEndian.Uint16(val[0:2])
			safi := val[2]
			if afi != afiIPv6 || safi != safiUnicast {
				return nil, fmt.Errorf("bgp: unsupported AFI/SAFI %d/%d", afi, safi)
			}
			ps, err := decodePrefixes(val[3:])
			if err != nil {
				return nil, err
			}
			u.Withdrawn = append(u.Withdrawn, ps...)
		default:
			// Unknown optional attributes are ignored (transitive
			// forwarding is out of scope for the scenarios).
		}
		attrs = attrs[off+vlen:]
	}
	return u, nil
}

func decodeASPath(b []byte) (Path, error) {
	var p Path
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, errors.New("bgp: truncated AS_PATH segment")
		}
		segType, n := b[0], int(b[1])
		if segType != 2 {
			return nil, fmt.Errorf("bgp: unsupported AS_PATH segment type %d", segType)
		}
		if len(b) < 2+2*n {
			return nil, errors.New("bgp: truncated AS_PATH")
		}
		for i := 0; i < n; i++ {
			p = append(p, ASN(binary.BigEndian.Uint16(b[2+2*i:4+2*i])))
		}
		b = b[2+2*n:]
	}
	return p, nil
}
