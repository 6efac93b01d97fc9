package bgp

import "tango/internal/addr"

// Message is one BGP message in flight between the two sides of a
// session: an OPEN, an UPDATE or a KEEPALIVE, exactly one field set.
type Message struct {
	Open      bool
	Update    *Update
	Keepalive bool
}

// Attrs are the path attributes shared by all NLRI in one UPDATE. A
// route is forwarded over the session it came in on, so an UPDATE
// carries no NEXT_HOP.
type Attrs struct {
	Path        Path
	Communities []Community
}

// Update announces and/or withdraws prefixes. Its Path and Communities
// are the sender's shared export set: the receiver keeps them as they
// are and never writes through them.
type Update struct {
	Withdrawn []addr.Prefix
	Announced []addr.Prefix
	Attrs     Attrs
}

// The OPEN and the KEEPALIVE carry nothing, so every session sends the
// same two values.
var (
	openMsg      = &Message{Open: true}
	keepaliveMsg = &Message{Keepalive: true}
)

// oneUpdate is the single allocation behind a one-prefix UPDATE: the
// message, its Update and the array its NLRI slice views.
type oneUpdate struct {
	msg  Message
	upd  Update
	nlri [1]addr.Prefix
}

// newUpdate returns an UPDATE for p: an announcement carrying x, or a
// withdrawal when x is nil.
func newUpdate(p addr.Prefix, x *exportSet) *Message {
	b := &oneUpdate{nlri: [1]addr.Prefix{p}}
	if x == nil {
		b.upd.Withdrawn = b.nlri[:]
	} else {
		b.upd.Announced = b.nlri[:]
		b.upd.Attrs = Attrs{Path: x.path, Communities: x.comms}
	}
	b.msg.Update = &b.upd
	return &b.msg
}
