package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// BatchWheel schedules a large population of integer-identified items —
// flows, not events — on a single-level bucket ring with one engine
// event per occupied time granule. Where the engine's hierarchical wheel
// gives every event its own Event (right for heterogeneous control
// traffic), a flow workload schedules millions of homogeneous "emit
// next packet" callbacks; giving each its own Event would cost ~64 B
// and one schedule/fire round trip apiece. The batch wheel instead
// chains item indices through one shared int32 array (4 B per item),
// keeps at most one engine event in flight, and drains every item due
// in a granule with a single callback fan-out.
//
// Semantics:
//
//   - Add(item, at) schedules the item for the granule boundary at or
//     after `at` (times are quantized up to the granule, so an item
//     never fires early; callers wanting exact periods use intervals
//     that are multiples of the granule).
//   - Items in one bucket fire in reverse insertion order (the chains
//     are prepend-only). The order is deterministic.
//   - The fire callback may re-Add its item (periodic flows). A re-Add
//     landing inside the granule currently being drained is deferred to
//     the next granule, so a drain always terminates.
//   - The ring covers [base, base+slots) granules; Add beyond that
//     horizon panics (it indicates a misconfigured wheel, not load).
//
// A BatchWheel is owned by its engine's goroutine (one per partition on
// a sharded network) and is not safe for concurrent use — exactly the
// ownership rule every simulation component follows.
type BatchWheel struct {
	eng     *Engine
	fire    func(now Time, item int32)
	granule time.Duration
	slots   int
	mask    int64
	head    []int32  // per-slot chain head (item index), -1 = empty
	next    []int32  // per-item chain link, sized by Reserve / Add
	occ     []uint64 // slot occupancy bitmap
	base    int64    // granule index of the oldest undrained bucket
	n       int      // items currently scheduled
	ev      *Event   // the single in-flight drain event
	evAt    Time
	drain   bool // inside OnSimEvent: Add defers to base+1, no event churn
}

// NewBatchWheel returns a wheel firing cb, with the given granule and a
// ring horizon of at least `horizon` into the future. Slot count is the
// next power of two covering horizon/granule (minimum 64).
func NewBatchWheel(eng *Engine, granule, horizon time.Duration, cb func(now Time, item int32)) *BatchWheel {
	if eng == nil || cb == nil {
		panic("sim: NewBatchWheel needs an engine and a callback")
	}
	if granule <= 0 || horizon <= granule {
		panic(fmt.Sprintf("sim: NewBatchWheel granule %v / horizon %v", granule, horizon))
	}
	slots := 64
	for Time(slots)*granule < horizon+2*granule {
		slots <<= 1
	}
	w := &BatchWheel{
		eng:     eng,
		fire:    cb,
		granule: granule,
		slots:   slots,
		mask:    int64(slots - 1),
		head:    make([]int32, slots),
		occ:     make([]uint64, slots/64),
		base:    int64(eng.Now()) / int64(granule),
	}
	for i := range w.head {
		w.head[i] = -1
	}
	return w
}

// Reserve grows the per-item link array to hold item indices < n, so
// later Adds below that bound never allocate. Adding an item beyond the
// reserved range grows the array amortized (an allocation).
func (w *BatchWheel) Reserve(n int) {
	if n <= len(w.next) {
		return
	}
	grown := make([]int32, n)
	copy(grown, w.next)
	for i := len(w.next); i < n; i++ {
		grown[i] = -1
	}
	w.next = grown
}

// Add schedules item to fire at the granule boundary at or after `at`.
// Past times fire as soon as possible (next engine step); an item must
// not be scheduled twice without firing in between (the wheel has one
// link per item and does not check).
func (w *BatchWheel) Add(item int32, at Time) {
	if item < 0 {
		panic("sim: BatchWheel.Add with negative item")
	}
	if int(item) >= len(w.next) {
		w.Reserve(int(item) + 1)
	}
	if w.n == 0 && !w.drain {
		// Empty wheel: catch the cursor up so an idle stretch longer
		// than the horizon cannot push a fresh Add past it.
		w.base = int64(w.eng.Now()) / int64(w.granule)
	}
	u := (int64(at) + int64(w.granule) - 1) / int64(w.granule) // ceil: never early
	floor := w.base
	if w.drain {
		floor = w.base + 1 // current granule is being drained; defer
	}
	if u < floor {
		u = floor
	}
	if u >= w.base+int64(w.slots) {
		panic(fmt.Sprintf("sim: BatchWheel.Add %v beyond horizon (%d slots of %v)",
			at, w.slots, w.granule))
	}
	slot := u & w.mask
	w.next[item] = w.head[slot]
	w.head[slot] = item
	w.occ[slot>>6] |= 1 << uint(slot&63)
	w.n++
	if !w.drain {
		w.schedule(u)
	}
}

// schedule makes sure the single drain event fires no later than bucket
// u's boundary.
func (w *BatchWheel) schedule(u int64) {
	te := Time(u) * w.granule
	if w.ev != nil {
		if te >= w.evAt {
			return
		}
		w.eng.Cancel(w.ev)
	}
	d := te - w.eng.Now() // ScheduleArg clamps negative delays to "now"
	w.ev = w.eng.ScheduleArg(d, w, nil)
	w.evAt = te
}

// OnSimEvent drains every bucket whose boundary has been reached,
// firing the callback for each item, then re-arms for the next occupied
// bucket. It implements sim.ArgHandler; only the engine calls it.
func (w *BatchWheel) OnSimEvent(any) {
	w.ev = nil
	now := w.eng.Now()
	limit := int64(now) / int64(w.granule)
	w.drain = true
	for w.base <= limit {
		slot := w.base & w.mask
		if w.occ[slot>>6]&(1<<uint(slot&63)) != 0 {
			h := w.head[slot]
			w.head[slot] = -1
			w.occ[slot>>6] &^= 1 << uint(slot&63)
			for h >= 0 {
				nxt := w.next[h]
				w.next[h] = -1
				w.n--
				w.fire(now, h)
				h = nxt
			}
		}
		w.base++
	}
	w.drain = false
	if u, ok := w.nextOccupied(); ok {
		w.schedule(u)
	}
}

// nextOccupied scans the occupancy bitmap from the base cursor and
// returns the granule index of the earliest non-empty bucket.
func (w *BatchWheel) nextOccupied() (int64, bool) {
	if w.n == 0 {
		return 0, false
	}
	start := w.base & w.mask
	words := w.slots >> 6
	for k := 0; k <= words; k++ {
		wi := (int(start>>6) + k) % words
		word := w.occ[wi]
		if k == 0 {
			word &^= (1 << uint(start&63)) - 1 // slots before base already drained
		} else if k == words {
			word &= (1 << uint(start&63)) - 1 // wrapped: only slots before base
		}
		if word != 0 {
			s := int64(wi)<<6 + int64(bits.TrailingZeros64(word))
			return w.base + ((s - start) & w.mask), true
		}
	}
	return 0, false
}

// Stop cancels the pending drain event and forgets every scheduled
// item. The wheel stays usable (Add re-arms it).
func (w *BatchWheel) Stop() {
	if w.ev != nil {
		w.eng.Cancel(w.ev)
		w.ev = nil
	}
	if w.n > 0 {
		for slot := range w.head {
			for h := w.head[slot]; h >= 0; {
				nxt := w.next[h]
				w.next[h] = -1
				h = nxt
			}
			w.head[slot] = -1
		}
		for i := range w.occ {
			w.occ[i] = 0
		}
		w.n = 0
	}
	w.base = int64(w.eng.Now()) / int64(w.granule)
}
