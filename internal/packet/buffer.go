// Package packet implements the wire formats Tango puts on the network:
// IPv4, IPv6, UDP, and the Tango encapsulation header that carries the
// path identifier, sequence number, and sender timestamp.
//
// The design follows the gopacket serialization idiom: layers are
// *prepended* into a SerializeBuffer (payload first, then UDP, then IP),
// so each layer can treat the bytes already in the buffer as its payload
// when computing lengths and checksums. Decoding uses preallocated layer
// structs (DecodeFromBytes), chained by hand, so the per-packet hot path
// — which in the paper is an eBPF program — does not allocate.
//
// No other package indexes header bytes: header.go has the fixed-offset
// readers and setters a forwarder, selector or sink needs without a full
// decode, and build.go the one builder of the inner packet generators
// send.
package packet

import "fmt"

// SerializeBuffer accumulates a packet back-to-front. PrependBytes returns
// space in front of the current contents. Bytes returns the assembled
// packet. Clear resets for reuse (previously
// returned slices are invalidated, as in gopacket).
type SerializeBuffer struct {
	data  []byte
	start int // index of first used byte in data
}

// NewSerializeBuffer returns a buffer with a default capacity suitable for
// a tunnel-encapsulated MTU-sized packet.
func NewSerializeBuffer() *SerializeBuffer {
	return NewSerializeBufferExpectedSize(128, 1500)
}

// NewSerializeBufferExpectedSize pre-reserves expectedPrepend bytes of
// front headroom and expectedAppend more of capacity behind it.
func NewSerializeBufferExpectedSize(expectedPrepend, expectedAppend int) *SerializeBuffer {
	b := &SerializeBuffer{
		data:  make([]byte, expectedPrepend, expectedPrepend+expectedAppend),
		start: expectedPrepend,
	}
	return b
}

// Bytes returns the assembled packet. The slice is valid until the next
// PrependBytes/Clear/SetBytes.
func (b *SerializeBuffer) Bytes() []byte { return b.data[b.start:] }

// Len returns the current packet length.
func (b *SerializeBuffer) Len() int { return len(b.data) - b.start }

// PrependBytes returns a zeroed slice of n bytes in front of the current
// contents for a header to be written into.
func (b *SerializeBuffer) PrependBytes(n int) []byte {
	if n < 0 {
		panic("packet: negative prepend")
	}
	if b.start < n {
		// Grow at the front with doubling, so repeated large prepends
		// amortize to O(1) (a per-call constant would let capacity —
		// and make's zeroing cost — grow without bound on a reused
		// buffer). Existing back free space is preserved.
		used := len(b.data) - b.start
		backFree := cap(b.data) - len(b.data)
		newCap := 2*cap(b.data) + n
		newStart := newCap - backFree - used
		nd := make([]byte, newStart+used, newCap)
		copy(nd[newStart:], b.data[b.start:])
		b.data = nd
		b.start = newStart
	}
	b.start -= n
	out := b.data[b.start : b.start+n]
	for i := range out {
		out[i] = 0
	}
	return out
}

// Clear empties the buffer. All of the existing capacity becomes front
// headroom: serialization is prepend-driven.
func (b *SerializeBuffer) Clear() {
	b.start = cap(b.data)
	b.data = b.data[:b.start]
}

// SetBytes replaces the buffer contents with a copy of p, leaving no
// front headroom (a received packet is parsed in place, not prepended
// to). It grows the backing array only when p exceeds the capacity, so a
// reused buffer loads packets without allocating.
func (b *SerializeBuffer) SetBytes(p []byte) {
	if cap(b.data) < len(p) {
		b.data = make([]byte, len(p))
	} else {
		b.data = b.data[:len(p)]
	}
	b.start = 0
	copy(b.data, p)
}

// SerializableLayer is a layer that can write itself in front of the
// current buffer contents.
type SerializableLayer interface {
	// SerializeTo prepends the layer's wire form. The bytes already in
	// buf are the layer's payload.
	SerializeTo(buf *SerializeBuffer) error
}

// SerializeLayers clears buf and serializes the given layers so they wrap
// each other: SerializeLayers(buf, ip, udp, payload) produces ip(udp(payload)).
func SerializeLayers(buf *SerializeBuffer, layers ...SerializableLayer) error {
	buf.Clear()
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(buf); err != nil {
			return fmt.Errorf("packet: serializing %T: %w", layers[i], err)
		}
	}
	return nil
}
