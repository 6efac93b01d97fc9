// Package bgp implements the BGP-4 control plane the Tango prototype
// drives: wire-format messages (RFC 4271) with multiprotocol IPv6 NLRI
// (RFC 4760), RFC 1997 communities, per-neighbor import/export policy with
// Gao-Rexford defaults, the standard decision process, and MRAI-paced
// propagation — everything the paper's BIRD-based deployment relies on.
//
// The paper's key control-plane move is operator "action communities":
// a Vultr customer attaches, say, 64600:2914 to an announcement and
// Vultr's border routers then refrain from exporting that prefix to NTT
// (AS 2914). Iterating that knob exposes the alternate AS paths between
// the two edges. This package implements those semantics in the provider
// export policy so the discovery algorithm in internal/control can run
// unmodified against the simulated Internet.
package bgp

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"tango/internal/addr"
)

// ASN is an autonomous system number. The wire codec uses the classic
// 2-octet representation, which covers every ASN in the Tango scenarios
// (real transit providers and RFC 6996 private ASNs).
type ASN uint16

// Well-known ASNs used across the Tango scenarios (real allocations).
const (
	ASVultr  ASN = 20473
	ASNTT    ASN = 2914
	ASTelia  ASN = 1299
	ASGTT    ASN = 3257
	ASCogent ASN = 174
	ASLevel3 ASN = 3356
)

// IsPrivate reports whether the ASN is in the RFC 6996 private range.
func (a ASN) IsPrivate() bool { return a >= 64512 }

// Origin is the ORIGIN path attribute value.
type Origin uint8

// Origin values per RFC 4271.
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "Incomplete"
	}
	return fmt.Sprintf("Origin(%d)", uint8(o))
}

// Community is an RFC 1997 community value: high 16 bits conventionally an
// ASN, low 16 bits an operator-defined action or tag.
type Community uint32

// MakeCommunity builds asn:value.
func MakeCommunity(asn ASN, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// ASN returns the high 16 bits.
func (c Community) ASN() ASN { return ASN(c >> 16) }

func (c Community) String() string {
	switch c {
	case CommunityNoExport:
		return "no-export"
	case CommunityNoAdvertise:
		return "no-advertise"
	}
	return fmt.Sprintf("%d:%d", uint32(c)>>16, uint16(c))
}

// Well-known communities (RFC 1997).
const (
	CommunityNoExport    Community = 0xFFFFFF01
	CommunityNoAdvertise Community = 0xFFFFFF02
)

// Action-community namespaces implemented by the provider export policy,
// modelled on the AS20473 (Vultr) BGP customer guide the paper uses:
//
//	64600:<asn>  do not export to AS <asn>
//	64601:<asn>  prepend own ASN once when exporting to AS <asn>
//	64602:<asn>  prepend twice
//	64603:<asn>  prepend three times
const (
	ActionNoExportTo ASN = 64600
	ActionPrepend1   ASN = 64601
	ActionPrepend2   ASN = 64602
	ActionPrepend3   ASN = 64603
)

// NoExportTo returns the action community suppressing export to asn.
func NoExportTo(asn ASN) Community { return MakeCommunity(ActionNoExportTo, uint16(asn)) }

// PrependTo returns the action community prepending n (1..3) copies of
// the provider's ASN when exporting to asn.
func PrependTo(asn ASN, n int) Community {
	switch n {
	case 1:
		return MakeCommunity(ActionPrepend1, uint16(asn))
	case 2:
		return MakeCommunity(ActionPrepend2, uint16(asn))
	case 3:
		return MakeCommunity(ActionPrepend3, uint16(asn))
	}
	panic(fmt.Sprintf("bgp: PrependTo count %d out of range", n))
}

// Path is an AS_PATH as a flat AS_SEQUENCE (the only segment type the
// Tango scenarios produce).
type Path []ASN

// Contains reports whether the path includes asn (BGP loop detection).
func (p Path) Contains(asn ASN) bool {
	for _, a := range p {
		if a == asn {
			return true
		}
	}
	return false
}

// Clone returns an independent copy.
func (p Path) Clone() Path { return append(Path(nil), p...) }

// Prepend returns a new path with asn prepended n times.
func (p Path) Prepend(asn ASN, n int) Path {
	out := make(Path, 0, len(p)+n)
	for i := 0; i < n; i++ {
		out = append(out, asn)
	}
	return append(out, p...)
}

// StripPrivate returns the path with private ASNs removed, as providers do
// when propagating customer announcements made from a private ASN (paper
// §4.1 footnote).
func (p Path) StripPrivate() Path {
	out := make(Path, 0, len(p))
	for _, a := range p {
		if !a.IsPrivate() {
			out = append(out, a)
		}
	}
	return out
}

// Equal reports element-wise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

func (p Path) String() string {
	var b strings.Builder
	for i, a := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", a)
	}
	return b.String()
}

// Route is one BGP route: a prefix plus its path attributes. Routes are
// treated as immutable once shared; policies that modify a route must
// clone it first (see Clone).
type Route struct {
	Prefix      addr.Prefix
	Path        Path
	NextHop     netip.Addr
	Origin      Origin
	MED         uint32
	LocalPref   uint32 // meaningful locally; not exported on eBGP
	Communities []Community

	// Learned metadata (not wire attributes).
	FromSession *Session // nil for locally originated routes
}

// Clone returns a deep copy safe to modify.
func (r *Route) Clone() *Route {
	c := *r
	c.Path = r.Path.Clone()
	c.Communities = append([]Community(nil), r.Communities...)
	return &c
}

// HasCommunity reports whether the route carries c.
func (r *Route) HasCommunity(c Community) bool {
	for _, x := range r.Communities {
		if x == c {
			return true
		}
	}
	return false
}

// SortedCommunities returns the communities in ascending order (stable
// display and comparison).
func (r *Route) SortedCommunities() []Community {
	out := append([]Community(nil), r.Communities...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *Route) String() string {
	if r == nil {
		return "<nil route>"
	}
	return fmt.Sprintf("%v via %v path [%v] lp=%d med=%d", r.Prefix, r.NextHop, r.Path, r.LocalPref, r.MED)
}
