// Package obs is the zero-allocation observability layer: a metrics
// registry of typed atomic instruments (Counter, Gauge, log-bucketed
// Histogram), a fixed-record trace journal for structured virtual-time
// events, and Prometheus text-format / JSON exposition over HTTP.
//
// The design constraint is the enforced packet fast path: after an
// instrument is registered, every operation on it — Inc, Add, Set,
// Observe — touches only preallocated atomic words, so instrumented
// encap/decap/deliver stays at 0 allocs/op (the internal/perf gate
// covers this). Registration is the only allocating step and happens at
// wiring time, never per packet.
//
// Instruments are nil-safe: every method on a nil *Counter, *Gauge, or
// *Histogram is a no-op, so components carry instrument fields
// unconditionally and uninstrumented deployments pay one predictable
// branch, no interface dispatch, no allocation.
//
// The event loop is single-goroutine, but exposition is not: tangod
// serves scrapes over real HTTP while its wall-clock loop runs. All
// instrument state is therefore atomic, and a scrape observes each
// instrument at a consistent-enough instant without ever blocking the
// event loop.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Counter is a monotonically increasing metric (atomic, zero-allocation).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down (atomic bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// NumBuckets is the fixed bucket count of every Histogram.
const NumBuckets = 64

// Histogram is a log2-bucketed distribution over non-negative int64
// values (typically nanoseconds). Bucket i counts observations v with
// 2^(i-1) <= v < 2^i (bucket 0 counts v <= 0), so the 64 fixed buckets
// cover the whole int64 range and Observe never allocates: the bucket
// index is one bits.Len64 away.
type Histogram struct {
	count  atomic.Uint64
	sum    atomic.Int64
	bucket [NumBuckets]atomic.Uint64
	tick   atomic.Uint32 // Start calls, choosing the one in sampleEvery that reads the clock
}

// sampleEvery is the wall-clock timing rate: Start reads the clock on one
// call in this many, and ObserveSince records that one with this weight.
// Two clock reads per packet were a tenth of its dataplane work; one pair
// in eight keeps the latency distribution and leaves exact event counts
// to the _total counters beside each timer.
const sampleEvery = 8

// Observe records one value exactly. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.observe(v, 1)
}

// observe records v as weight observations: bucket and count grow by
// weight, sum by weight·v, so +Inf == _count holds in every scrape.
func (h *Histogram) observe(v int64, weight uint64) {
	h.bucket[bucketOf(v)].Add(weight)
	h.count.Add(weight)
	h.sum.Add(v * int64(weight))
}

// Start begins a sampled wall-clock timing for a later ObserveSince. The
// first call and every sampleEvery-th after it read the clock; the rest,
// and every call on a nil receiver, return the zero time without reading
// it. The choice is a counter, not a random draw, so timing never
// perturbs a seeded run.
func (h *Histogram) Start() time.Time {
	if h == nil || h.tick.Add(1)%sampleEvery != 1 {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the wall-clock nanoseconds elapsed since t0, a
// value Start returned, with weight sampleEvery. A zero t0 — an
// unsampled Start — records nothing and reads no clock. Safe on a nil
// receiver.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil || t0.IsZero() {
		return
	}
	h.observe(int64(time.Since(t0)), sampleEvery)
}

// bucketOf maps a value to its bucket index: 0 for v <= 0, otherwise
// bits.Len64(v) (1 for v=1, 11 for v=1024, ...), clamped to the top
// bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > NumBuckets-1 {
		return NumBuckets - 1
	}
	return b
}

// BucketUpperBound returns the exclusive upper bound of bucket i
// (math.MaxInt64 for the top bucket, 0 for bucket 0's inclusive bound).
func BucketUpperBound(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= NumBuckets-1:
		return math.MaxInt64
	default:
		return int64(1) << uint(i)
	}
}

// Count returns how many values were observed (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns an upper bound on the q-quantile of the union of hs
// (per-bucket counts summed across the histograms; nil ones count as
// empty): the exclusive upper bound of the lowest bucket whose
// cumulative count reaches max(1, ceil(q·count)). The result is always
// one of the 64 fixed BucketUpperBound values — Quantile never
// interpolates within a bucket, so equal-count histograms agree exactly
// and comparisons between runs are bit-stable. Consequences worth
// relying on: q outside [0,1] is clamped; q=0 reports the first
// non-empty bucket's bound (the minimum's bucket), q=1 the last
// non-empty bucket's; with log2 buckets the bound is within 2× of the
// true quantile — the right resolution for SLO checks ("p99 OWD under
// 250 ms") over millions of observations with 64 words of state.
// Returns 0 when nothing was observed, and 0 for any q when every
// observation was <= 0 (bucket 0's bound).
func Quantile(q float64, hs ...*Histogram) int64 {
	var total uint64
	for _, h := range hs {
		total += h.Count()
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := uint64(math.Ceil(q * float64(total)))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		for _, h := range hs {
			cum += h.Bucket(i)
		}
		if cum >= need {
			return BucketUpperBound(i)
		}
	}
	return math.MaxInt64
}

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 {
	if h == nil || i < 0 || i >= NumBuckets {
		return 0
	}
	return h.bucket[i].Load()
}

// Label is one name="value" pair attached to an instrument.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
	typeTimer // a histogram of host wall-clock time
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeTimer:
		return "timer"
	default:
		return "histogram"
	}
}

// instrument is one (name, labels) identity inside a family.
type instrument struct {
	// labels is the pre-rendered, escaped `a="b",c="d"` form — the
	// instrument's identity within its family and its exposition order.
	labels string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every instrument sharing a metric name.
type family struct {
	name, help string
	typ        metricType
	insts      map[string]*instrument
	order      []*instrument // sorted by labels
}

// Registry holds instruments with stable name+label identity:
// re-registering the same (name, labels) returns the same instrument,
// so wiring code may register idempotently. Registering one name with
// two different types or help strings panics — identity bugs should
// fail at wiring time, not corrupt a scrape.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter returns the counter registered under (name, labels), creating
// it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	inst := r.instrument(name, help, typeCounter, labels)
	if inst.c == nil {
		inst.c = &Counter{}
	}
	return inst.c
}

// Gauge returns the gauge registered under (name, labels), creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	inst := r.instrument(name, help, typeGauge, labels)
	if inst.g == nil {
		inst.g = &Gauge{}
	}
	return inst.g
}

// Histogram returns the histogram registered under (name, labels),
// creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.histogram(name, help, typeHistogram, labels)
}

// Timer returns the histogram registered under (name, labels) as a timer
// of host wall-clock time, creating it on first use. Prometheus exposition
// shows a timer as a histogram; Snapshot leaves it out, because its value
// varies run to run even with a fixed seed.
func (r *Registry) Timer(name, help string, labels ...Label) *Histogram {
	return r.histogram(name, help, typeTimer, labels)
}

func (r *Registry) histogram(name, help string, typ metricType, labels []Label) *Histogram {
	inst := r.instrument(name, help, typ, labels)
	if inst.h == nil {
		inst.h = &Histogram{}
	}
	return inst.h
}

func (r *Registry) instrument(name, help string, typ metricType, labels []Label) *instrument {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.fams[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ, insts: make(map[string]*instrument)}
		r.fams[name] = fam
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, fam.typ, typ))
	}
	if help != "" && fam.help != "" && fam.help != help {
		panic(fmt.Sprintf("obs: metric %q registered with two help strings", name))
	}
	if fam.help == "" {
		fam.help = help
	}
	inst, ok := fam.insts[key]
	if !ok {
		inst = &instrument{labels: key}
		fam.insts[key] = inst
		i := sort.Search(len(fam.order), func(i int) bool { return fam.order[i].labels >= key })
		fam.order = append(fam.order, nil)
		copy(fam.order[i+1:], fam.order[i:])
		fam.order[i] = inst
	}
	return inst
}

// renderLabels produces the canonical, escaped `a="b",c="d"` form.
// Labels are sorted by name so registration order never leaks into
// identity or exposition.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes for label
// values: backslash, double quote, and newline. The exposition is UTF-8,
// so each byte of v that is not valid UTF-8 (a tangod -site name can
// carry one) becomes U+FFFD, as ranging over v yields it.
func escapeLabelValue(v string) string {
	if utf8.ValidString(v) && !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp applies the HELP-line escapes: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// Snapshot flattens every instrument but the timers into a
// name{labels} -> value map: counters and gauges one entry each,
// histograms a _count and _sum pair. Without the timers it is a function
// of the simulation alone, so experiment drivers attach it to their
// Results and tango-lab writes it as a per-experiment metrics.json.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, fam := range r.fams {
		for _, inst := range fam.order {
			suffix := ""
			if inst.labels != "" {
				suffix = "{" + inst.labels + "}"
			}
			switch fam.typ {
			case typeCounter:
				out[name+suffix] = float64(inst.c.Value())
			case typeGauge:
				out[name+suffix] = inst.g.Value()
			case typeHistogram:
				out[name+"_count"+suffix] = float64(inst.h.Count())
				out[name+"_sum"+suffix] = float64(inst.h.Sum())
			}
		}
	}
	return out
}
