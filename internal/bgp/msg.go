package bgp

// A session hands its peer one of three messages: the OPEN and the
// KEEPALIVE, which carry nothing, so every session sends the same two
// signal values, and an UPDATE, an *Update.
type signal uint8

const (
	openMsg signal = iota + 1
	keepaliveMsg
)

// Attrs are the path attributes of an announcement. A route is forwarded
// over the session it came in on, so an UPDATE carries no NEXT_HOP.
type Attrs struct {
	Path        Path
	Communities []Community
}

// Update announces or withdraws one prefix, named by its number in the
// Table both sides of a session share. An announcement's Attrs are the
// sender's shared export set: the receiver keeps them as they are and
// never writes through them. A withdrawal has none.
type Update struct {
	Num   int32
	Attrs *Attrs
}

// newUpdate returns an UPDATE for prefix number n: an announcement
// carrying x, or a withdrawal when x is nil.
func newUpdate(n int32, x *exportSet) *Update {
	if x == nil {
		return &Update{Num: n}
	}
	return &Update{Num: n, Attrs: &x.Attrs}
}
