// Package measure implements the statistics behind Tango's measurement
// story: streaming one-way-delay aggregates, the 1-second rolling-window
// jitter metric the paper reports, time-series capture for figure
// regeneration, and sequence-gap loss/reorder accounting.
package measure

import (
	"fmt"
	"math"
	"time"
)

// Welford is a streaming mean/variance accumulator (Welford's algorithm),
// numerically stable over the hundreds of millions of samples an 8-day
// 10ms-probe trace produces. The zero value is ready for use.
type Welford struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add incorporates one sample.
func (w *Welford) Add(v float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = v, v
	} else {
		if v < w.min {
			w.min = v
		}
		if v > w.max {
			w.max = v
		}
	}
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// N returns the sample count.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the sample mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance.
func (w *Welford) Var() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest sample (0 with no samples).
func (w *Welford) Min() float64 { return w.min }

// Reset clears the accumulator.
func (w *Welford) Reset() { *w = Welford{} }

func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f max=%.3f", w.n, w.Mean(), w.Std(), w.min, w.max)
}

// RollingStd computes the paper's sub-second jitter metric: the standard
// deviation of samples within each Window-long window, averaged over all
// windows of the trace ("we calculated the mean standard deviation of a
// 1-second rolling window", §5). Windows tumble on sample time; windows
// with fewer than two samples contribute nothing.
type RollingStd struct {
	Window time.Duration

	cur      Welford
	curStart time.Duration
	started  bool
	winStds  Welford
}

// NewRollingStd returns a tracker with the given window (the paper uses
// one second).
func NewRollingStd(window time.Duration) *RollingStd {
	if window <= 0 {
		panic("measure: RollingStd window must be positive")
	}
	return &RollingStd{Window: window}
}

// Add incorporates a sample observed at virtual time t. Samples must
// arrive in nondecreasing time order.
func (r *RollingStd) Add(t time.Duration, v float64) {
	if !r.started {
		r.started = true
		r.curStart = t - t%r.Window
	}
	for t >= r.curStart+r.Window {
		r.closeWindow()
		r.curStart += r.Window
	}
	r.cur.Add(v)
}

func (r *RollingStd) closeWindow() {
	if r.cur.N() >= 2 {
		r.winStds.Add(r.cur.Std())
	}
	r.cur.Reset()
}

// MeanStd returns the mean of per-window standard deviations, including
// the currently open window.
func (r *RollingStd) MeanStd() float64 {
	final := r.winStds
	if r.cur.N() >= 2 {
		final.Add(r.cur.Std())
	}
	return final.Mean()
}

// Windows returns the number of closed windows that contributed.
func (r *RollingStd) Windows() uint64 { return r.winStds.N() }

// EWMA is an exponentially weighted moving average estimator — one of the
// controller's path-delay estimators (the ablation benchmarks compare it
// against windowed means under spike noise).
type EWMA struct {
	Alpha float64
	v     float64
	init  bool
}

// NewEWMA returns an estimator with the given smoothing factor in (0,1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("measure: EWMA alpha out of (0,1]")
	}
	return &EWMA{Alpha: alpha}
}

// Add incorporates a sample.
func (e *EWMA) Add(v float64) {
	if !e.init {
		e.v, e.init = v, true
		return
	}
	e.v += e.Alpha * (v - e.v)
}

// Value returns the current estimate (0 before any sample).
func (e *EWMA) Value() float64 { return e.v }

// Valid reports whether at least one sample arrived.
func (e *EWMA) Valid() bool { return e.init }

// SeqTracker derives loss, reordering, and duplication from the Tango
// header's per-path sequence numbers (§3: "adding tunnel-specific
// sequence numbers on packets can allow Tango to additionally compute
// loss and reordering").
type SeqTracker struct {
	next      uint32
	started   bool
	Received  uint64
	Lost      uint64 // gaps never filled (net of late arrivals)
	Reordered uint64 // arrived after a later sequence number
	Dup       uint64
	// gaps marks, over the seqWindow sequence numbers before next, the
	// ones skipped and not yet arrived, so a late arrival converts a
	// counted loss into a reorder. Slot seq%seqWindow; allocated on the
	// first gap, so an in-order path never pays for it.
	gaps *[seqWindow / 64]uint64
}

// seqWindow is how far behind the newest sequence number a straggler
// still converts its loss into a reorder; older ones count as dups.
const seqWindow = 4096

// Add processes one received sequence number and reports its kind:
// "ok", "reorder", or "dup".
func (s *SeqTracker) Add(seq uint32) string {
	s.Received++
	if !s.started {
		s.started = true
		s.next = seq + 1
		return "ok"
	}
	switch {
	case seq == s.next:
		if s.gaps != nil {
			s.setGap(seq, false) // the slot's last occupant left the window
		}
		s.next++
		return "ok"
	case seqAfter(seq, s.next):
		// Gap: provisionally count the skipped range as lost. Only the
		// last seqWindow slots up to seq are rewritten: anything older
		// leaves the window.
		gap := seq - s.next
		s.Lost += uint64(gap)
		if s.gaps == nil {
			s.gaps = new([seqWindow / 64]uint64)
		}
		from := s.next
		if gap >= seqWindow {
			from = seq - (seqWindow - 1)
		}
		for i := from; i != seq; i++ {
			s.setGap(i, true)
		}
		s.setGap(seq, false)
		s.next = seq + 1
		return "ok"
	default:
		if s.pending(seq) {
			s.setGap(seq, false)
			if s.Lost > 0 {
				s.Lost--
			}
			s.Reordered++
			return "reorder"
		}
		s.Dup++
		return "dup"
	}
}

// pending reports whether seq, behind next, was skipped, has not
// arrived since, and is still inside the window.
func (s *SeqTracker) pending(seq uint32) bool {
	return s.gaps != nil && s.next-seq <= seqWindow && s.gaps[seq%seqWindow/64]&(1<<(seq%64)) != 0
}

func (s *SeqTracker) setGap(seq uint32, lost bool) {
	w, bit := &s.gaps[seq%seqWindow/64], uint64(1)<<(seq%64)
	if lost {
		*w |= bit
	} else {
		*w &^= bit
	}
}

// seqAfter reports whether a is after b in 32-bit sequence space.
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// LossRate returns lost / (received + lost).
func (s *SeqTracker) LossRate() float64 {
	total := s.Received + s.Lost
	if total == 0 {
		return 0
	}
	return float64(s.Lost) / float64(total)
}
