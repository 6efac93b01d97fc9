// Package bgp implements the part of BGP-4 the paper's control plane
// uses: OPEN/UPDATE/KEEPALIVE sessions, communities, AS paths,
// Gao-Rexford export rules and local preference, a decision process of
// LOCAL_PREF, AS-path length and router ID, and MRAI-paced propagation.
// Sessions hand each other message values, not RFC 4271 bytes: every
// speaker runs in the process.
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
	"slices"
	"strings"
)

// ASN is an autonomous system number in the classic 2-octet range, which
// covers every ASN in the Tango scenarios (real transit providers and
// RFC 6996 private ASNs).
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
	return fmt.Sprintf("%d:%d", uint32(c)>>16, uint16(c))
}

// ActionNoExportTo is the action-community namespace the provider export
// policy implements, modelled on the AS20473 (Vultr) BGP customer guide
// the paper uses: 64600:<asn> means do not export to AS <asn>.
const ActionNoExportTo ASN = 64600

// NoExportTo returns the action community suppressing export to asn.
func NoExportTo(asn ASN) Community { return MakeCommunity(ActionNoExportTo, uint16(asn)) }

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

// Route is one BGP route for a prefix the RIB slot holding it names:
// the attributes it was announced with and the session it came in on,
// nil when originated. The attributes are shared — a learned route's are
// those of the export set the sender sent as its UPDATE — so nothing may
// write through them. The zero Route is no route. The local preference
// follows from the session (LocalPref).
type Route struct {
	*Attrs
	FromSession *Session
}

// originatedLocalPref is a locally originated route's LOCAL_PREF: it
// beats anything learned.
const originatedLocalPref = 1 << 30

// LocalPref returns the route's LOCAL_PREF (meaningful locally; not
// exported on eBGP): the Gao-Rexford import preference of the session it
// came in on, or originatedLocalPref.
func (r Route) LocalPref() uint32 {
	if r.FromSession == nil {
		return originatedLocalPref
	}
	return DefaultLocalPref(r.FromSession.cfg.Relation)
}

// HasCommunity reports whether the route carries c.
func (r Route) HasCommunity(c Community) bool {
	return slices.Contains(r.Communities, c)
}

func (r Route) String() string {
	if r.Attrs == nil {
		return "<no route>"
	}
	return fmt.Sprintf("from %v path [%v] lp=%d", r.FromSession, r.Path, r.LocalPref())
}
