package dataplane

import (
	"tango/internal/addr"
	"tango/internal/packet"
)

// Relay is the intra-site hand-off program that composes pairwise Tango
// deployments into an overlay (§6, "from Tango of 2 to Tango of N"). A
// site that participates in several pairs runs one border switch per
// pair; the relay connects them: a Tango packet arriving on one pair's
// switch carrying the relay extension whose inner destination belongs to
// a *remote* site is re-encapsulated onto the next overlay segment
// through the co-located egress switch, instead of being delivered to
// local hosts.
//
// The forwarding decision is a longest-prefix match on the inner
// destination against a statically configured table — the same
// "cooperating endpoints can configure this table statically" argument
// the paper makes for the sender's peer-prefix classifier. Each segment
// keeps its own path IDs, sequence numbers, and timestamps: the egress
// switch's selector (driven by that pair's controller) picks the
// segment's current best wide-area path, so per-segment Tango steering
// composes with overlay routing. The relay TTL bounds the hop count; a
// packet whose budget is exhausted is dropped rather than looped.
type Relay struct {
	next addr.Trie[*Switch]

	Stats struct {
		// Forwarded counts packets re-encapsulated onto a next segment.
		Forwarded uint64
		// TTLExpired counts packets dropped by the loop guard.
		TTLExpired uint64
	}
}

// NewRelay returns an empty relay.
func NewRelay() *Relay { return &Relay{} }

// AddRoute maps an inner destination prefix to the egress switch whose
// pair carries the next overlay segment toward it.
func (r *Relay) AddRoute(p addr.Prefix, egress *Switch) { r.next.Insert(p, egress) }

// Attach installs the relay on an ingress switch: relay-tagged packets
// arriving there consult the table before local delivery.
func (r *Relay) Attach(sw *Switch) { sw.relay = r }

// forward runs the relay program on a decapsulated inner packet carrying
// a relay tag with the given TTL. It reports whether the packet was
// consumed (forwarded or dropped); false means the inner destination has
// no next segment here — the overlay route ends at this site and the
// packet belongs to local delivery. inner is borrowed from the arriving
// packet's buffer: re-encapsulation serializes it into a freshly leased
// buffer before the call returns, so no bytes outlive the borrow.
func (r *Relay) forward(inner []byte, ttl uint8) bool {
	dst, _, ok := packet.Dst(inner)
	if !ok {
		return false
	}
	egress, _, ok := r.next.Lookup(dst)
	if !ok {
		return false
	}
	if ttl <= 1 {
		r.Stats.TTLExpired++
		return true
	}
	egress.encapAndSend(inner, ttl-1)
	r.Stats.Forwarded++
	return true
}
