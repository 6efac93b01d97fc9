package sim

import "math/bits"

// Hierarchical timing wheel: the engine's pending-event store.
//
// The classic DES priority queue (container/heap) pays O(log n) pointer
// chasing per schedule and per fire. The wheel replaces that with O(1)
// bucket arithmetic, the same structure ns-3's calendar queue and the
// kernel's timer wheel use, adapted to exact virtual time:
//
//   - Virtual time is quantized into granules of 2^granBits ns. Level 0
//     has one bucket per granule across a 64-granule window; each higher
//     level widens its buckets by 64×, so numLevels levels cover
//     64^numLevels granules (≈9 years of virtual time at 1 µs granules).
//     Anything beyond that horizon waits on an overflow chain.
//   - An event's bucket is derived from the highest 6-bit digit in which
//     its granule index differs from the cursor's ("base"): digit L
//     differs → level L, slot = that digit. Events in the same bucket are
//     chained through Event.next (unordered — chains are prepend-only, so
//     insertion allocates nothing and touches one pointer).
//   - The cursor only moves forward. Entering a region cascades that
//     region's bucket into lower levels; expiring a level-0 bucket moves
//     its live events into the "due" set the engine fires from, a binary
//     min-heap on (at, seq).
//
// Exactness is what distinguishes this wheel from the kernel's: a timer
// wheel may fire late by up to a bucket width, but a DES scheduler must
// fire every event at its exact (at, seq) position or replay determinism
// breaks. The due heap restores the total order that bucketing coarsened
// — (at, seq) keys are unique per engine, so the heap's pop order is the
// sorted order — and two invariants keep the order global rather than
// merely per-bucket:
//
//	inv-1  every bucketed event's granule index is ≥ base, and every
//	       due event's is < base, so the due set strictly precedes
//	       everything still in buckets (granule(at) < base
//	       ⇒ at < base<<granBits ≤ any bucketed event's at);
//	inv-2  the cursor never moves past an occupied bucket: before the
//	       level-0 window is scanned, any bucket sitting at the cursor's
//	       own digit of a higher level (a region the cursor has entered,
//	       whose events may be due anywhere inside it) is cascaded down,
//	       and the cursor only jumps to the earliest occupied slot of the
//	       lowest non-empty level, which always precedes every slot of
//	       the levels above it.
//
// Same-instant FIFO comes out of the (at, seq) key: seq is assigned in
// scheduling order and tie-breaks equal timestamps.
//
// The due set is a heap rather than a sorted list because the cursor runs
// ahead of the clock: peek moves base to the next occupied bucket even
// when that lies far past the instant a Run stops at, and everything that
// then arrives for an earlier granule — a barrier's cross-partition
// batch, a set-up burst — lands in the due set in arbitrary order. A
// push is O(log n) whatever the arrival order.
const (
	granBits    = 10 // level-0 bucket width: 2^10 ns ≈ 1 µs of virtual time
	levelBits   = 6  // 64 buckets per level
	wheelSlots  = 1 << levelBits
	slotMask    = wheelSlots - 1
	numLevels   = 8                     // 48 bits of granules ≈ 9.1 years
	horizonBits = numLevels * levelBits // granule deltas ≥ 2^48 overflow
)

type wheelLevel struct {
	slot     [wheelSlots]*Event
	occupied uint64 // bit s set ⇔ slot[s] != nil
}

type wheel struct {
	level [numLevels]wheelLevel
	// base is the cursor: the granule index the wheel has advanced to.
	// Monotonically non-decreasing; all bucketed events live at granule
	// ≥ base (inv-1).
	base int64
	// due is the min-heap on (at, seq) the engine fires from: every
	// pending event whose granule precedes base. The slice keeps its
	// capacity, so a warm engine pushes without allocating.
	due []*Event
	// overflow chains events beyond the wheel horizon (notably timers
	// clamped to Forever). overflowMin tracks the earliest granule on the
	// chain so an exhausted wheel can rebase onto it.
	overflow    *Event
	overflowMin int64
}

func granule(t Time) int64 { return int64(t) >> granBits }

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// place files ev into the due heap, a bucket, or the overflow chain,
// according to where its granule falls relative to the cursor.
func (w *wheel) place(e *Engine, ev *Event) {
	u := granule(ev.at)
	if u < w.base {
		w.insertDue(ev)
		e.noteDue()
		return
	}
	x := uint64(u ^ w.base)
	if bits.Len64(x) > horizonBits {
		if w.overflow == nil || u < w.overflowMin {
			w.overflowMin = u
		}
		ev.next = w.overflow
		w.overflow = ev
		return
	}
	l := 0
	if x != 0 {
		l = (bits.Len64(x) - 1) / levelBits
	}
	s := (u >> (uint(l) * levelBits)) & slotMask
	lv := &w.level[l]
	ev.next = lv.slot[s]
	lv.slot[s] = ev
	lv.occupied |= 1 << uint(s)
}

// insertDue pushes ev onto the due heap.
func (w *wheel) insertDue(ev *Event) {
	h := append(w.due, ev)
	w.due = h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// popDue removes the due heap's root; the heap must not be empty.
func (w *wheel) popDue() {
	h := w.due
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	w.due = h[:n]
	if n > 0 {
		siftDown(h[:n], 0, last)
	}
}

// siftDown stores ev into the subtree of h rooted at the hole i, moving
// smaller children up until ev fits.
func siftDown(h []*Event, i int, ev *Event) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && eventLess(h[c+1], h[c]) {
			c++
		}
		if !eventLess(h[c], ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// heapifyDue restores the heap property over the whole due slice, in
// O(n): after a bucket's events were appended or a sweep removed some.
func (w *wheel) heapifyDue() {
	h := w.due
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, h[i])
	}
}

// take detaches and returns slot s of level l.
func (w *wheel) take(l, s int) *Event {
	lv := &w.level[l]
	chain := lv.slot[s]
	lv.slot[s] = nil
	lv.occupied &^= 1 << uint(s)
	return chain
}

// refill advances the cursor to the next occupied bucket, cascading
// higher levels as regions are entered, and loads that bucket —
// tombstones dropped — into the due heap. It reports whether any live
// event became due. It never touches the clock: calling it early (NextAt
// peeking ahead) only moves events between buckets, which cannot change
// the (at, seq) fire order.
func (w *wheel) refill(e *Engine) bool {
	if e.nlive+e.ntomb == 0 {
		return false
	}
	for {
		// inv-2, part 1: cascade any occupied bucket at the cursor's own
		// digit, lowest level first. Such a bucket covers a region the
		// cursor already entered, so its events may precede anything the
		// level-0 window holds.
		cascaded := false
		for l := 1; l < numLevels; l++ {
			d := (w.base >> (uint(l) * levelBits)) & slotMask
			if w.level[l].occupied&(1<<uint(d)) != 0 {
				w.drain(e, l, int(d))
				cascaded = true
				break
			}
		}
		if cascaded {
			continue
		}
		// Level-0 window: earliest occupied slot at or after the cursor.
		if m := w.level[0].occupied &^ (1<<uint(w.base&slotMask) - 1); m != 0 {
			k := int64(bits.TrailingZeros64(m))
			u := w.base&^slotMask | k
			chain := w.take(0, int(k))
			w.base = u + 1
			w.expire(e, chain)
			if len(w.due) > 0 {
				return true
			}
			continue // bucket held only tombstones
		}
		// inv-2, part 2: the level-0 window is empty, so jump the cursor
		// to the earliest occupied slot of the lowest non-empty level and
		// cascade it. A lower level's next slot always starts before any
		// higher level's (its buckets subdivide the region the higher
		// slot has yet to reach), so scanning upward finds the true next.
		jumped := false
		for l := 1; l < numLevels; l++ {
			shift := uint(l) * levelBits
			d := (w.base >> shift) & slotMask
			m := w.level[l].occupied &^ (1<<uint(d+1) - 1)
			if m == 0 {
				continue
			}
			k := int64(bits.TrailingZeros64(m))
			span := int64(1) << (shift + levelBits)
			w.base = w.base&^(span-1) | k<<shift
			w.drain(e, l, int(k))
			jumped = true
			break
		}
		if jumped {
			continue
		}
		// Wheel exhausted: rebase onto the overflow chain if it holds
		// anything (Forever timers, multi-year delays).
		if w.overflow != nil {
			w.rebase(e)
			continue
		}
		return false
	}
}

// drain cascades bucket (l, s) into lower levels (or the due heap),
// reclaiming tombstones on the way. Every event re-places strictly below
// level l because its granule now shares digit l with the cursor.
func (w *wheel) drain(e *Engine, l, s int) {
	chain := w.take(l, s)
	for chain != nil {
		ev := chain
		chain = chain.next
		if ev.state < 0 {
			e.reclaim(ev)
			continue
		}
		w.place(e, ev)
	}
}

// rebase moves the cursor to the overflow chain's earliest granule and
// re-places the chain; events still beyond the new horizon re-overflow
// (place retracks overflowMin).
func (w *wheel) rebase(e *Engine) {
	if w.overflowMin > w.base {
		w.base = w.overflowMin
	}
	chain := w.overflow
	w.overflow = nil
	for chain != nil {
		ev := chain
		chain = chain.next
		if ev.state < 0 {
			e.reclaim(ev)
			continue
		}
		w.place(e, ev)
	}
}

// expire moves an expired level-0 bucket's live events onto the due heap
// and reclaims its tombstones. refill only runs on an empty due set, so
// the one heapify costs O(bucket).
func (w *wheel) expire(e *Engine, chain *Event) {
	for chain != nil {
		ev := chain
		chain = chain.next
		if ev.state < 0 {
			e.reclaim(ev)
			continue
		}
		w.due = append(w.due, ev)
	}
	w.heapifyDue()
	e.noteDue()
}
