package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Kind classifies a trace record.
type Kind uint8

// Trace record kinds.
const (
	// KindPathSwitch is a controller moving data traffic between
	// tunnels: A is the old path ID, B the new, V the OWD delta in
	// nanoseconds (new minus old, negative when switching to a faster
	// path), Target the site name.
	KindPathSwitch Kind = iota + 1
	// KindFaultApply / KindFaultRevert bracket a chaos fault window;
	// Target is the fault label.
	KindFaultApply
	KindFaultRevert
	// KindWithdraw is a BGP withdrawal fault taking effect; Target is
	// the fault label (speaker and prefix).
	KindWithdraw
	// KindQueueDrop is a line dropping a packet at admission (queue
	// overflow or administratively down); V is the packet size in
	// bytes, Target the line name.
	KindQueueDrop
	// KindViolation is a chaos invariant failing; Target is the
	// invariant name.
	KindViolation
	// KindDiscovery is one §4.1 discovery round observing (or failing to
	// observe) a path: A is the round index, B the observed AS-path
	// length (0 on the terminating round), V the adjacent provider's ASN
	// (0 on termination), Target "d/<pair>/<src>-><dst>".
	KindDiscovery
	// KindFaultFailed is a chaos fault whose Apply failed (an unknown
	// target, or a withdrawal of a prefix not originated); Target is the
	// fault label.
	KindFaultFailed
)

// String returns the stable wire name used in JSON exposition.
func (k Kind) String() string {
	switch k {
	case KindPathSwitch:
		return "path_switch"
	case KindFaultApply:
		return "fault_apply"
	case KindFaultRevert:
		return "fault_revert"
	case KindWithdraw:
		return "withdraw"
	case KindQueueDrop:
		return "queue_drop"
	case KindViolation:
		return "violation"
	case KindDiscovery:
		return "discovery"
	case KindFaultFailed:
		return "fault_failed"
	default:
		return "unknown"
	}
}

// TargetLen is the fixed byte budget for a record's target name; longer
// names are truncated at a rune boundary. Fixed-size records keep Record
// allocation-free and make the ring's memory footprint exact.
const TargetLen = 40

// Rec is one fixed-size trace record. All fields are virtual-time data,
// so seeded runs produce byte-identical journals (see WriteJSON).
type Rec struct {
	// Seq numbers records in append order across the whole run (it
	// keeps counting when the ring wraps, so a tail knows how much
	// history was overwritten).
	Seq  uint64
	At   time.Duration // virtual time
	Kind Kind
	A, B uint8
	V    int64
	tlen uint8
	targ [TargetLen]byte
}

// Target returns the record's target name (truncated to TargetLen).
func (r *Rec) Target() string { return string(r.targ[:r.tlen]) }

// Journal is a bounded ring of trace records. Record is zero-allocation
// after construction; readers copy records out under the same mutex, so
// a real-HTTP /trace tail can run while the simulation appends.
//
// In a simulation every partition, the lone partition of a small
// network included, records into its own staging view (see Shard), and
// the deployment that binds the journal merges the views into the
// parent ring at epoch barriers in a canonical order — virtual time,
// then partition, then per-partition append order. Merge order
// therefore never depends on goroutine scheduling, and the parent's
// WriteJSON output is byte-identical across worker counts.
type Journal struct {
	mu   sync.Mutex
	recs []Rec
	next uint64 // total records ever appended

	// parent is non-nil on a shard view; Record then stages into pending
	// (single-writer: the partition's goroutine) instead of the ring.
	// head is the merge cursor into pending, maintained by the parent.
	parent  *Journal
	pending []Rec
	head    int
	shards  []*Journal
}

// NewJournal returns a journal keeping the last capacity records
// (minimum 1).
func NewJournal(capacity int) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{recs: make([]Rec, capacity)}
}

// Record appends one record, overwriting the oldest when the ring is
// full. Safe on a nil receiver (no-op), so instrumented components call
// it unconditionally.
func (j *Journal) Record(at time.Duration, kind Kind, a, b uint8, v int64, target string) {
	if j == nil {
		return
	}
	if j.parent != nil {
		// Shard view: stage without a lock (one writer per view) and
		// without a Seq — the parent assigns sequence numbers at merge.
		j.pending = append(j.pending, Rec{})
		r := &j.pending[len(j.pending)-1]
		r.At = at
		r.Kind = kind
		r.A, r.B = a, b
		r.V = v
		r.tlen = uint8(copy(r.targ[:], clip(target)))
		return
	}
	j.mu.Lock()
	r := &j.recs[j.next%uint64(len(j.recs))]
	r.Seq = j.next
	r.At = at
	r.Kind = kind
	r.A, r.B = a, b
	r.V = v
	r.tlen = uint8(copy(r.targ[:], clip(target)))
	j.next++
	j.mu.Unlock()
}

// clip cuts s to at most TargetLen bytes without splitting a rune: a
// valid but incomplete multi-byte sequence left at the cut goes too.
func clip(s string) string {
	if len(s) <= TargetLen {
		return s
	}
	s = s[:TargetLen]
	i := len(s) - 1 // back to the start of the last rune, if it is near
	for i > len(s)-utf8.UTFMax && !utf8.RuneStart(s[i]) {
		i--
	}
	if !utf8.FullRuneInString(s[i:]) {
		return s[:i]
	}
	return s
}

// Shard returns the staging view for one partition of a simulation,
// creating views up to part as needed. Components owned by that
// partition record into the view from the partition's goroutine;
// MergeShards folds everything back into this journal.
func (j *Journal) Shard(part int) *Journal {
	if j == nil {
		return nil
	}
	if j.parent != nil {
		panic("obs: Shard of a shard view")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.shards) <= part {
		j.shards = append(j.shards, &Journal{parent: j})
	}
	return j.shards[part]
}

// MergeShards appends every staged shard record into the ring, ordered by
// (virtual time, partition index, per-partition append order), and clears
// the staging views. Call it single-threaded at epoch barriers; each
// view's staging slice is already time-sorted because events fire in time
// order within a partition.
func (j *Journal) MergeShards() {
	if j == nil || len(j.shards) == 0 {
		return
	}
	for {
		best := -1
		var bestAt time.Duration
		for p, s := range j.shards {
			if s.head >= len(s.pending) {
				continue
			}
			if best < 0 || s.pending[s.head].At < bestAt {
				best, bestAt = p, s.pending[s.head].At
			}
		}
		if best < 0 {
			break
		}
		s := j.shards[best]
		j.append(&s.pending[s.head])
		s.head++
	}
	for _, s := range j.shards {
		s.pending = s.pending[:0]
		s.head = 0
	}
}

// append copies one staged record into the ring, assigning its Seq.
func (j *Journal) append(src *Rec) {
	j.mu.Lock()
	r := &j.recs[j.next%uint64(len(j.recs))]
	*r = *src
	r.Seq = j.next
	j.next++
	j.mu.Unlock()
}

// Total returns how many records were ever appended (including ones the
// ring has since overwritten).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Tail returns copies of the most recent n records in append order
// (all of them when n <= 0 or n exceeds what the ring holds).
func (j *Journal) Tail(n int) []Rec {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	held := j.next
	if held > uint64(len(j.recs)) {
		held = uint64(len(j.recs))
	}
	if n <= 0 || uint64(n) > held {
		n = int(held)
	}
	out := make([]Rec, n)
	for i := 0; i < n; i++ {
		seq := j.next - uint64(n) + uint64(i)
		out[i] = j.recs[seq%uint64(len(j.recs))]
	}
	return out
}

// WriteJSON writes the most recent n records (all for n <= 0) as a JSON
// array. The rendering is hand-rolled and field-ordered, so two seeded
// runs that produced the same records produce byte-identical output —
// the determinism artifact the journal tests compare.
func (j *Journal) WriteJSON(w io.Writer, n int) error {
	recs := j.Tail(n)
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i := range recs {
		r := &recs[i]
		sep := ","
		if i == len(recs)-1 {
			sep = ""
		}
		_, err := fmt.Fprintf(w, "  {\"seq\":%d,\"at_ns\":%d,\"kind\":%q,\"a\":%d,\"b\":%d,\"v\":%d,\"target\":%q}%s\n",
			r.Seq, int64(r.At), r.Kind.String(), r.A, r.B, r.V, escapeJSONSafe(r.Target()), sep)
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// escapeJSONSafe replaces invalid UTF-8 and every non-printable rune,
// control characters among them, with '.'. %q escapes those, some in
// forms JSON does not know (\xNN, \U000NNNNN, \a), and leaves printable
// runes as they are, so what remains renders as valid JSON. Targets are
// ASCII labels in practice, but a site name reaches one from a flag.
func escapeJSONSafe(s string) string {
	if utf8.ValidString(s) && !strings.ContainsFunc(s, func(r rune) bool { return !strconv.IsPrint(r) }) {
		return s
	}
	var b strings.Builder
	for len(s) > 0 {
		r, n := utf8.DecodeRuneInString(s)
		if r == utf8.RuneError && n == 1 || !strconv.IsPrint(r) {
			b.WriteByte('.')
		} else {
			b.WriteString(s[:n])
		}
		s = s[n:]
	}
	return b.String()
}
