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
//     64^numLevels granules: every int64 instant, Forever included, has
//     a bucket.
//   - An event's bucket is derived from the highest 6-bit digit in which
//     its granule index differs from the cursor's ("base"): digit L
//     differs → level L, slot = that digit. Events in the same bucket are
//     chained both ways through Event.next/prev (unordered, prepended),
//     and each event records its level and slot, so Cancel unlinks it in
//     O(1).
//   - The cursor only moves forward. Entering a region cascades that
//     region's bucket into lower levels; expiring a level-0 bucket moves
//     its events into the "due" set the engine fires from, a binary
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
	granBits   = 10 // level-0 bucket width: 2^10 ns ≈ 1 µs of virtual time
	levelBits  = 6  // 64 buckets per level
	wheelSlots = 1 << levelBits
	slotMask   = wheelSlots - 1
	numLevels  = 9 // 54 bits of granules: Forever is granule 2^53−1
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
}

func granule(t Time) int64 { return int64(t) >> granBits }

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// place files ev into the due heap or a bucket, according to where its
// granule falls relative to the cursor.
func (w *wheel) place(e *Engine, ev *Event) {
	u := granule(ev.at)
	if u < w.base {
		ev.state = stateDue
		w.insertDue(ev)
		e.noteDue()
		return
	}
	l := 0
	if x := uint64(u ^ w.base); x != 0 {
		l = (bits.Len64(x) - 1) / levelBits
	}
	s := (u >> (uint(l) * levelBits)) & slotMask
	lv := &w.level[l]
	ev.state, ev.level, ev.slot = stateBucketed, uint8(l), uint8(s)
	ev.prev, ev.next = nil, lv.slot[s]
	if ev.next != nil {
		ev.next.prev = ev
	}
	lv.slot[s] = ev
	lv.occupied |= 1 << uint(s)
}

// unlink removes a bucketed event from its chain.
func (w *wheel) unlink(ev *Event) {
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	if ev.prev != nil {
		ev.prev.next = ev.next
		return
	}
	lv := &w.level[ev.level]
	lv.slot[ev.slot] = ev.next
	if ev.next == nil {
		lv.occupied &^= 1 << ev.slot
	}
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

// take detaches and returns slot s of level l.
func (w *wheel) take(l, s int) *Event {
	lv := &w.level[l]
	chain := lv.slot[s]
	lv.slot[s] = nil
	lv.occupied &^= 1 << uint(s)
	return chain
}

// refill advances the cursor to the next occupied bucket, cascading
// higher levels as regions are entered, and loads that bucket into the
// due heap. The due heap must be empty and a bucketed event pending. It
// never touches the clock: calling it early (NextAt peeking ahead) only
// moves events between buckets, which cannot change the (at, seq) fire
// order.
func (w *wheel) refill(e *Engine) {
next:
	for {
		// inv-2, part 1: cascade any occupied bucket at the cursor's own
		// digit, lowest level first. Such a bucket covers a region the
		// cursor already entered, so its events may precede anything the
		// level-0 window holds.
		for l := 1; l < numLevels; l++ {
			d := (w.base >> (uint(l) * levelBits)) & slotMask
			if w.level[l].occupied&(1<<uint(d)) != 0 {
				w.drain(e, l, int(d))
				continue next
			}
		}
		// Level-0 window: earliest occupied slot at or after the cursor.
		if m := w.level[0].occupied &^ (1<<uint(w.base&slotMask) - 1); m != 0 {
			k := int64(bits.TrailingZeros64(m))
			chain := w.take(0, int(k))
			w.base = (w.base&^slotMask | k) + 1
			w.expire(e, chain)
			return
		}
		// inv-2, part 2: the level-0 window is empty, so jump the cursor
		// to the earliest occupied slot of the lowest non-empty level and
		// cascade it. A lower level's next slot always starts before any
		// higher level's (its buckets subdivide the region the higher
		// slot has yet to reach), so scanning upward finds the true next.
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
			continue next
		}
		panic("sim: wheel is empty but events are pending")
	}
}

// drain cascades bucket (l, s) into lower levels (or the due heap).
// Every event re-places strictly below level l because its granule now
// shares digit l with the cursor.
func (w *wheel) drain(e *Engine, l, s int) {
	for ev := w.take(l, s); ev != nil; {
		next := ev.next
		w.place(e, ev)
		ev = next
	}
}

// expire moves an expired level-0 bucket onto the due heap. refill only
// runs on an empty due set, so the one heapify costs O(bucket).
func (w *wheel) expire(e *Engine, chain *Event) {
	for ev := chain; ev != nil; ev = ev.next {
		ev.state = stateDue
		w.due = append(w.due, ev)
	}
	h := w.due
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, h[i])
	}
	e.noteDue()
}
