package bgp

// A session hands its peer one of four messages: the OPEN and the
// KEEPALIVE, which carry nothing, so every session sends the same two
// signal values; an announcement, which is the sender's *exportSet for
// the prefix; and a withdrawal, which is the *withdrawal the Table holds
// for the prefix's number. Neither UPDATE is built per session or per
// send, and neither is written after it exists, so the receiver keeps
// what arrived as it is.
type signal uint8

const (
	openMsg signal = iota + 1
	keepaliveMsg
)

// withdrawal is the UPDATE withdrawing the prefix it numbers.
type withdrawal int32

// Attrs are the path attributes of an announcement. A route is forwarded
// over the session it came in on, so an UPDATE carries no NEXT_HOP.
type Attrs struct {
	Path        Path
	Communities []Community
}
