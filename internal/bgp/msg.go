package bgp

import (
	"net/netip"

	"tango/internal/addr"
)

// Message is one BGP message in flight between the two sides of a
// session: an OPEN, an UPDATE or a KEEPALIVE, exactly one field set.
type Message struct {
	Open      bool
	Update    *Update
	Keepalive bool
}

// Attrs are the path attributes shared by all NLRI in one UPDATE.
type Attrs struct {
	Path        Path
	NextHop     netip.Addr
	Communities []Community
}

// Update announces and/or withdraws prefixes. Its slices may be shared
// with the sender's Adj-RIB-Out, so the receiver copies what it keeps.
type Update struct {
	Withdrawn []addr.Prefix
	Announced []addr.Prefix
	Attrs     Attrs
}
