package packet

// Buf is a pooled packet buffer: a SerializeBuffer bound to the freelist
// it came from. It is the unit of ownership on the simulator's packet
// fast path — the equivalent of the fixed per-CPU buffer an eBPF program
// works in, where the paper's data plane encapsulates and decapsulates
// every packet without touching an allocator.
//
// Ownership convention (see DESIGN.md, "Wire format and data plane"):
//
//   - Exactly one owner at a time. Passing a *Buf to a consuming function
//     (Node.InjectBuf, Line.send, the engine's payload events) hands
//     ownership over; the caller must not touch the Buf afterwards.
//   - Whoever consumes a packet releases it: the node releases after the
//     local-delivery handler returns, a dropping line or router releases
//     at the drop site.
//   - Byte slices derived from a Buf (Bytes, decoded layer payloads, the
//     inner packet handed to DeliverLocal) are borrows: they are valid
//     only until the owner releases the Buf. Retain a copy, not the slice.
//
// Release returns the Buf to its pool; releasing twice panics, because a
// double release silently aliases two "owners" onto one buffer and
// corrupts packets far from the bug.
type Buf struct {
	SerializeBuffer
	pool   *BufPool
	next   *Buf
	leased bool
}

// Release returns the buffer to its pool. The Buf and every slice derived
// from it are invalid afterwards.
func (b *Buf) Release() {
	if b.pool != nil {
		b.pool.put(b)
	}
}

// MoveTo hands b's packet to a buffer leased from p without copying it:
// the two backing arrays trade places, so the packet and its headroom
// arrive as they were, and b — now holding the fresh buffer's cleared
// array — goes back to its own pool. Every Buf stays in the pool it was
// made by; only arrays travel. b is released and must not be touched
// afterwards.
func (b *Buf) MoveTo(p *BufPool) *Buf {
	nb := p.Get()
	nb.SerializeBuffer, b.SerializeBuffer = b.SerializeBuffer, nb.SerializeBuffer
	b.Release()
	return nb
}

// Buffer capacity policy: a buffer starts as small as a small packet and
// grows on demand. defaultBufCap is the Go size class (224 B) that holds
// the largest small packet: a 64 B payload in inner IPv6 and UDP, under
// outer IPv6, UDP and a Tango header with report, relay and auth (216 B).
// A larger packet grows the array by doubling (PrependBytes, SetBytes).
// A grown array stays in the pool, so 1 KiB traffic grows each buffer
// once; one grown past maxPooledCap is discarded on release, so one
// jumbo packet cannot permanently inflate the pool's footprint. The
// buffer count is not capped: the freelist can never hold more buffers
// than were once leased at the same instant, which is memory the run
// already needed, and a cap below that working set turns every burst
// into fresh allocations.
const (
	defaultBufCap = 224
	maxPooledCap  = 16384
)

// BufPool is a freelist of packet buffers. It is not goroutine-safe:
// like the event engine, it belongs to one single-goroutine simulation
// (each simnet.Network owns one).
type BufPool struct {
	free *Buf

	// Stats counts pool activity; News on a warm steady state means the
	// fast path is leaking buffers somewhere.
	Stats PoolStats
}

// PoolStats counts a pool's leases (Gets), the ones that had to create a
// buffer (News), releases (Puts) and the oversized releases it dropped
// (Discards).
type PoolStats struct {
	Gets, News, Puts, Discards uint64
}

// NewBufPool returns an empty pool; buffers are created on demand and
// recycled through Release.
func NewBufPool() *BufPool { return &BufPool{} }

// Get leases a cleared buffer from the pool (allocating one only when the
// freelist is empty). The caller owns it until it hands the Buf off or
// releases it.
func (p *BufPool) Get() *Buf {
	p.Stats.Gets++
	b := p.free
	if b == nil {
		p.Stats.News++
		b = &Buf{pool: p}
		b.data = make([]byte, 0, defaultBufCap)
	} else {
		p.free = b.next
		b.next = nil
	}
	b.leased = true
	b.Clear()
	return b
}

func (p *BufPool) put(b *Buf) {
	if !b.leased {
		panic("packet: Buf released twice")
	}
	b.leased = false
	p.Stats.Puts++
	if cap(b.data) > maxPooledCap {
		b.pool = nil // detach: a discarded Buf must not resurrect into the pool
		p.Stats.Discards++
		return
	}
	b.next = p.free
	p.free = b
}
