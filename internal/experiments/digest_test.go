package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite the pins in testdata/digests.txt for the tests that ran")

// digestFile pins, per test name, a SHA-256 over everything an experiment
// prints: its text report, its series CSVs, its metrics snapshot and its
// trace journal. A change that moves a pin on purpose re-pins with
//
//	go test ./internal/experiments -update-digests
//
// and says in one line which digest moved and why.
const digestFile = "testdata/digests.txt"

// pinArch is the platform the pins were recorded on. Elsewhere the
// compiler may fuse multiply-adds, and whether that moves any output is
// unverified, so the check is skipped there.
const pinArch = "amd64"

var pins struct {
	sync.Mutex
	m map[string]string // nil until loaded
}

// resultDigest hashes the four outputs tango-lab writes for a Result.
func resultDigest(r *Result) string {
	h := sha256.New()
	r.WriteText(h)
	labels := make([]string, 0, len(r.Series))
	for l := range r.Series {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(h, "series %s\n", l)
		if err := r.Series[l].WriteCSV(h); err != nil {
			panic(err) // a hash never fails to write
		}
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(r.Metrics[k], 'g', -1, 64))
	}
	io.WriteString(h, r.Trace)
	return hex.EncodeToString(h.Sum(nil))
}

// pinDigest compares r's digest with the pin recorded under t.Name(), or
// records it under -update-digests. E8 is exempt: its rows are
// wall-clock timings.
func pinDigest(t *testing.T, r *Result) {
	t.Helper()
	if r.ID == "E8" {
		return
	}
	if runtime.GOARCH != pinArch {
		t.Logf("digest pins are recorded on %s; not checked on %s", pinArch, runtime.GOARCH)
		return
	}
	got := resultDigest(r)
	pins.Lock()
	defer pins.Unlock()
	if pins.m == nil {
		m, err := readPins()
		if err != nil && !(*updateDigests && os.IsNotExist(err)) {
			t.Fatalf("reading %s: %v", digestFile, err)
		}
		pins.m = m
	}
	if *updateDigests {
		pins.m[t.Name()] = got
		if err := writePins(pins.m); err != nil {
			t.Fatalf("writing %s: %v", digestFile, err)
		}
		return
	}
	want, ok := pins.m[t.Name()]
	switch {
	case !ok:
		t.Fatalf("no digest pinned for %s in %s (got %s; run with -update-digests to record it)", t.Name(), digestFile, got)
	case want != got:
		t.Fatalf("%s output digest moved: pinned %s, got %s\n"+
			"(rerun with -update-digests only if the change is intended, and say which and why)", r.ID, want, got)
	}
}

func readPins() (map[string]string, error) {
	m := make(map[string]string)
	f, err := os.Open(digestFile)
	if err != nil {
		return m, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, hash, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			return m, fmt.Errorf("malformed line %q", sc.Text())
		}
		m[name] = hash
	}
	return m, sc.Err()
}

func writePins(m map[string]string) error {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %s\n", n, m[n])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		return err
	}
	return os.WriteFile(digestFile, []byte(b.String()), 0o644)
}
