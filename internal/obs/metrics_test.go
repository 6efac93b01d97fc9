package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(3.14)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Bucket(3) != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	g := r.Gauge("g", "help")
	g.Set(-2.5)
	if g.Value() != -2.5 {
		t.Fatalf("gauge = %v, want -2.5", g.Value())
	}
	g.Set(math.Inf(1))
	if !math.IsInf(g.Value(), 1) {
		t.Fatalf("gauge = %v, want +Inf", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3},
		{1023, 10}, {1024, 11}, {math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's values must fall below its upper bound and at or
	// above the previous bound.
	for _, c := range cases {
		if c.v <= 0 {
			continue
		}
		b := bucketOf(c.v)
		if c.v >= BucketUpperBound(b) && b != NumBuckets-1 {
			t.Errorf("value %d >= upper bound %d of its own bucket %d", c.v, BucketUpperBound(b), b)
		}
		if b > 1 && c.v < BucketUpperBound(b-1) {
			t.Errorf("value %d < upper bound %d of the previous bucket", c.v, BucketUpperBound(b-1))
		}
	}

	h := &Histogram{}
	h.Observe(0)
	h.Observe(1)
	h.Observe(1500)
	if h.Count() != 3 || h.Sum() != 1501 {
		t.Fatalf("count %d sum %d, want 3 / 1501", h.Count(), h.Sum())
	}
	if h.Bucket(0) != 1 || h.Bucket(1) != 1 || h.Bucket(11) != 1 {
		t.Fatalf("bucket spread wrong: %d %d %d", h.Bucket(0), h.Bucket(1), h.Bucket(11))
	}
}

// TestObserveSinceSamples pins the wall-clock timing contract: Start reads
// the clock on the first call and every 8th after it, ObserveSince
// records each of those with weight 8 — bucket and count by 8, sum by 8×v
// — and ignores the zero time every other Start returns. Observe stays
// exact.
func TestObserveSinceSamples(t *testing.T) {
	h := &Histogram{}
	const calls = 20
	var sampled []int
	for i := 0; i < calls; i++ {
		t0 := h.Start()
		if !t0.IsZero() {
			sampled = append(sampled, i)
		}
		h.ObserveSince(t0)
	}
	if len(sampled) != 3 || sampled[0] != 0 || sampled[1] != 8 || sampled[2] != 16 {
		t.Fatalf("Start read the clock on calls %v of %d, want [0 8 16]", sampled, calls)
	}
	if h.Count() != 24 || h.Sum()%8 != 0 {
		t.Fatalf("3 samples gave count %d, sum %d; want count 24 and a sum that is 8 × the samples'", h.Count(), h.Sum())
	}
	var inBuckets uint64
	for i := 0; i < NumBuckets; i++ {
		if b := h.Bucket(i); b%8 != 0 {
			t.Errorf("bucket %d holds %d, not a multiple of the weight 8", i, b)
		} else {
			inBuckets += b
		}
	}
	if inBuckets != h.Count() {
		t.Fatalf("buckets hold %d, count says %d", inBuckets, h.Count())
	}
	h.ObserveSince(time.Time{})
	if h.Count() != 24 {
		t.Fatalf("ObserveSince of the zero time recorded something: count %d", h.Count())
	}

	exact := &Histogram{}
	for i := 0; i < calls; i++ {
		exact.Observe(100)
	}
	if exact.Count() != calls || exact.Sum() != 100*calls || exact.Bucket(7) != calls {
		t.Fatalf("Observe sampled: count %d, sum %d, bucket %d; want %d, %d, %d",
			exact.Count(), exact.Sum(), exact.Bucket(7), calls, 100*calls, calls)
	}

	var nilH *Histogram
	if !nilH.Start().IsZero() {
		t.Fatal("nil histogram's Start read the clock")
	}
	nilH.ObserveSince(time.Now())
}

// TestHistogramQuantile pins Quantile's contract: the result is always a
// BucketUpperBound (never interpolated), selected by the lowest bucket
// whose cumulative count reaches max(1, ceil(q·count)), with q clamped
// to [0,1] and 0 returned for empty or nil histograms.
func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if got := Quantile(0.5, nilH); got != 0 {
		t.Errorf("nil histogram Quantile = %d, want 0", got)
	}
	empty := &Histogram{}
	if got := Quantile(0.99, empty); got != 0 {
		t.Errorf("empty histogram Quantile = %d, want 0", got)
	}

	// Everything in one bucket: every quantile, including the clamped
	// out-of-range ones, reports that bucket's exclusive upper bound.
	one := &Histogram{}
	for i := 0; i < 10; i++ {
		one.Observe(100) // bucket (64,128], upper bound 128
	}
	for _, q := range []float64{-1, 0, 0.01, 0.5, 0.99, 1, 2} {
		if got := Quantile(q, one); got != 128 {
			t.Errorf("single-bucket Quantile(%v) = %d, want 128", q, got)
		}
	}

	// Non-positive observations land in bucket 0, whose bound is 0.
	neg := &Histogram{}
	neg.Observe(-7)
	neg.Observe(0)
	if got := Quantile(1, neg); got != 0 {
		t.Errorf("all-nonpositive Quantile(1) = %d, want bucket 0 bound 0", got)
	}

	// Two buckets, 9:1 split: the p90 boundary needs ceil(0.9*10)=9
	// observations, satisfied by the low bucket; p91 crosses into the
	// high one. No intermediate value is ever reported.
	split := &Histogram{}
	for i := 0; i < 9; i++ {
		split.Observe(3) // bucket (2,4], bound 4
	}
	split.Observe(1000) // bucket (512,1024], bound 1024
	if got := Quantile(0.9, split); got != 4 {
		t.Errorf("Quantile(0.9) = %d, want 4 (ceil rule keeps it in the low bucket)", got)
	}
	if got := Quantile(0.91, split); got != 1024 {
		t.Errorf("Quantile(0.91) = %d, want 1024", got)
	}
	// q=0 still needs one observation (need is floored to 1): the
	// minimum's bucket, not a made-up zero.
	if got := Quantile(0, split); got != 4 {
		t.Errorf("Quantile(0) = %d, want 4", got)
	}
	// The top bucket reports MaxInt64 — an honest "unbounded above".
	top := &Histogram{}
	top.Observe(math.MaxInt64)
	if got := Quantile(0.5, top); got != math.MaxInt64 {
		t.Errorf("top-bucket Quantile = %d, want MaxInt64", got)
	}

	// Over a union the rule runs on summed buckets: split's nine low
	// observations plus one's ten at 128 put p50 in one's bucket and p95
	// there too (19 of 20 at or below 128), p96 in split's high bucket. A
	// nil member is empty, and no members report 0.
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.4, 4}, {0.5, 128}, {0.95, 128}, {0.96, 1024}} {
		if got := Quantile(c.q, split, nilH, one); got != c.want {
			t.Errorf("union Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := Quantile(0.5); got != 0 {
		t.Errorf("Quantile over no histograms = %d, want 0", got)
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", L("site", "ny"), L("path", "1"))
	// Same identity, labels given in a different order.
	b := r.Counter("x_total", "help", L("path", "1"), L("site", "ny"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	c := r.Counter("x_total", "help", L("site", "la"), L("path", "1"))
	if a == c {
		t.Fatal("different label values must return distinct counters")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two types must panic")
		}
	}()
	r.Gauge("m", "help")
}

func TestRegistryHelpMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "one help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name with two help strings must panic")
		}
	}()
	r.Counter("m", "another help")
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "h", L("site", "ny")).Add(7)
	r.Gauge("g", "h").Set(1.5)
	h := r.Histogram("lat_ns", "h")
	h.Observe(10)
	h.Observe(20)

	snap := r.Snapshot()
	want := map[string]float64{
		`c_total{site="ny"}`: 7,
		`g`:                  1.5,
		`lat_ns_count`:       2,
		`lat_ns_sum`:         30,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %v, want %v", k, snap[k], v)
		}
	}
	if len(snap) != len(want) {
		t.Errorf("snapshot has %d entries, want %d: %v", len(snap), len(want), snap)
	}
}

// TestTimerLeavesSnapshot: a timer is scraped as the histogram it is but
// stays out of Snapshot, which must be a function of the simulation.
func TestTimerLeavesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat_ns", "h").Observe(10)
	timer := r.Timer("wall_ns", "w", L("site", "ny"))
	timer.Observe(20)
	if r.Timer("wall_ns", "", L("site", "ny")) != timer {
		t.Fatal("re-registering a timer made a second instrument")
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap["lat_ns_count"] != 1 {
		t.Fatalf("snapshot = %v, want only lat_ns's _count and _sum", snap)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"# TYPE wall_ns histogram", `wall_ns_count{site="ny"} 1`, `wall_ns_sum{site="ny"} 20`} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("scrape lacks %q:\n%s", line, b.String())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a timer's name as a histogram must panic")
		}
	}()
	r.Histogram("wall_ns", "w")
}

func TestRenderLabelsEscaping(t *testing.T) {
	got := renderLabels([]Label{L("line", "a\\b\"c\nd")})
	want := `line="a\\b\"c\nd"`
	if got != want {
		t.Fatalf("renderLabels = %q, want %q", got, want)
	}
}
