package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry exercising every exposition feature:
// family and instrument ordering, label escaping, empty label sets,
// float formatting (including non-finite gauges), and the cumulative
// histogram form with skipped empty buckets.
func goldenRegistry() *Registry {
	r := NewRegistry()
	// Registered deliberately out of name and label order.
	r.Counter("tango_tunnel_tx_total", "Packets sent by tunnel.", L("site", "ny"), L("path", "2")).Add(12)
	r.Counter("tango_tunnel_tx_total", "Packets sent by tunnel.", L("site", "ny"), L("path", "1")).Add(40)
	r.Counter("tango_tunnel_tx_total", "Packets sent by tunnel.", L("site", "la"), L("path", "1")).Add(7)
	r.Gauge("tango_controller_current_path", "Path ID carrying traffic.", L("site", "ny")).Set(3)
	r.Gauge("weird_gauge", "Non-finite values spelled out.").Set(math.Inf(1))
	r.Counter("escaped_total", "Label values are escaped.",
		L("line", `GTT\NY->"LA"`+"\n")).Inc()
	h := r.Histogram("tango_path_owd_ns", "One-way delay.", L("site", "la"))
	h.Observe(0)
	h.Observe(3)       // bucket 2
	h.Observe(3)       // bucket 2
	h.Observe(1 << 20) // bucket 21
	r.Histogram("empty_hist", "No observations yet.")
	return r
}

// TestLabelValueEscapes: a label value goes out with the text format's
// three escapes and with each byte that is not valid UTF-8 replaced by
// U+FFFD, whether or not it also needs an escape, so a scrape is valid
// UTF-8 whatever a site is named; valid UTF-8 goes out as it came.
func TestLabelValueEscapes(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"ny", "ny"},
		{"", ""},
		{"café ✓ \U0001F600", "café ✓ \U0001F600"},
		{"\uFFFD", "\uFFFD"},
		{`GTT\NY->"LA"` + "\n", `GTT\\NY->\"LA\"\n`},
		{"bad\xffname", "bad\uFFFDname"},
		{"bad\xff\"name", "bad\uFFFD\\\"name"},
		{"\xe2\x82", "\uFFFD\uFFFD"},
		{"cut é\xc3", "cut é\uFFFD"},
		{"\xc0\xaf", "\uFFFD\uFFFD"},
	} {
		got := escapeLabelValue(c.in)
		if got != c.want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
		r := NewRegistry()
		r.Counter("site_total", "Per site.", L("site", c.in)).Inc()
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !utf8.Valid(buf.Bytes()) || !strings.Contains(buf.String(), `site="`+c.want+`"`) {
			t.Errorf("label %q scraped as\n%s", c.in, buf.Bytes())
		}
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "scrape.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("scrape drifted from golden file (re-run with -update if intended)\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestWritePrometheusParses round-trips the golden scrape through the
// minimal parser: every sample line must split into name{labels} value,
// families must appear in sorted order, and each histogram must be
// internally consistent (cumulative buckets non-decreasing, +Inf equal
// to _count).
func TestWritePrometheusParses(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, families, err := parseScrape(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples parsed")
	}
	for i := 1; i < len(families); i++ {
		if families[i-1] >= families[i] {
			t.Fatalf("families out of order: %q before %q", families[i-1], families[i])
		}
	}
	if v, ok := samples[`tango_tunnel_tx_total{path="1",site="ny"}`]; !ok || v != 40 {
		t.Fatalf("labelled counter = %v (present %v), want 40", v, ok)
	}
	if v := samples[`tango_path_owd_ns_count{site="la"}`]; v != 4 {
		t.Fatalf("histogram count = %v, want 4", v)
	}
	if v := samples[`tango_path_owd_ns_bucket{site="la",le="+Inf"}`]; v != 4 {
		t.Fatalf("+Inf bucket = %v, want 4 (must equal _count)", v)
	}
	if v := samples[`tango_path_owd_ns_bucket{site="la",le="4"}`]; v != 3 {
		t.Fatalf("le=4 cumulative bucket = %v, want 3", v)
	}
}

// parseScrape is the golden-file parser: a deliberately minimal reader
// of the Prometheus text format returning sample name{labels} -> value
// plus family names in order of appearance.
func parseScrape(s string) (map[string]float64, []string, error) {
	samples := make(map[string]float64)
	var families []string
	seen := make(map[string]bool)
	for ln, line := range strings.Split(s, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return nil, nil, errLine(ln, line, "malformed TYPE")
			}
			if !seen[parts[2]] {
				seen[parts[2]] = true
				families = append(families, parts[2])
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, nil, errLine(ln, line, "no value separator")
		}
		key, valStr := line[:sp], line[sp+1:]
		var v float64
		switch valStr {
		case "+Inf":
			v = math.Inf(1)
		case "-Inf":
			v = math.Inf(-1)
		case "NaN":
			v = math.NaN()
		default:
			f, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				return nil, nil, errLine(ln, line, "bad value: "+err.Error())
			}
			v = f
		}
		if i := strings.IndexByte(key, '{'); i >= 0 && !strings.HasSuffix(key, "}") {
			return nil, nil, errLine(ln, line, "unterminated label set")
		}
		samples[key] = v
	}
	return samples, families, nil
}

type scrapeErr struct {
	line int
	text string
	msg  string
}

func (e *scrapeErr) Error() string {
	return "scrape line " + strconv.Itoa(e.line+1) + " (" + e.text + "): " + e.msg
}

func errLine(ln int, text, msg string) error { return &scrapeErr{ln, text, msg} }

// TestConcurrentScrapeConsistency hammers one counter, one histogram and
// one sampled wall-clock timer from 8 goroutines while scrapes run; under
// -race this doubles as the data-race check, and each scrape's histograms
// must stay internally consistent (cumulative buckets never exceed +Inf,
// +Inf == _count), weighted samples included.
func TestConcurrentScrapeConsistency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "hammered counter")
	h := r.Histogram("hammer_ns", "hammered histogram")
	timer := r.Histogram("hammer_timed_ns", "hammered sampled timer")

	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe((seed + int64(i)) << (i % 20))
				timer.ObserveSince(timer.Start())
			}
		}(int64(w + 1))
	}

	go func() {
		defer close(stop)
		wg.Wait()
	}()
	for {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, _, err := parseScrape(buf.String())
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range []string{"hammer_ns", "hammer_timed_ns"} {
			inf := samples[fam+`_bucket{le="+Inf"}`]
			if count := samples[fam+"_count"]; count != inf {
				t.Fatalf("%s scrape inconsistent: +Inf bucket %v != _count %v", fam, inf, count)
			}
			for key, v := range samples {
				if strings.HasPrefix(key, fam+"_bucket{") && v > inf {
					t.Fatalf("cumulative bucket %s=%v exceeds +Inf %v", key, v, inf)
				}
			}
		}
		select {
		case <-stop:
			// One Start in 8 times, the first included, and counts 8 times:
			// 8 × ⌈40000 ÷ 8⌉ is exactly the number of calls.
			if c.Value() != writers*perWriter || h.Count() != writers*perWriter || timer.Count() != writers*perWriter {
				t.Fatalf("final counts %d/%d/%d, want %d", c.Value(), h.Count(), timer.Count(), writers*perWriter)
			}
			return
		default:
		}
	}
}
