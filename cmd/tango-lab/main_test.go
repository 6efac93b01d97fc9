package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"tango/internal/experiments"
	"tango/internal/measure"
)

// TestSelectExperiments pins -run to the registry: the message for an
// unknown id lists every id -run accepts (the opt-in e12-e15 included),
// every listed id resolves, and "all" is a strict subset.
func TestSelectExperiments(t *testing.T) {
	var ids []string
	for _, e := range experiments.Registry {
		ids = append(ids, e.ID)
		if got, err := selectExperiments(" " + strings.ToUpper(e.ID)); err != nil || len(got) != 1 || got[0].ID != e.ID {
			t.Errorf("-run %s resolved to %v, %v", e.ID, got, err)
		}
	}
	_, err := selectExperiments("e1,nope")
	if err == nil {
		t.Fatal("-run nope was accepted")
	}
	if want := fmt.Sprint(ids); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("error %q does not name \"nope\" and every id %s", err, want)
	}
	all, err := selectExperiments("all")
	if err != nil || len(all) == 0 || len(all) >= len(ids) {
		t.Fatalf("-run all picked %d of %d experiments, err %v", len(all), len(ids), err)
	}
}

// TestCheckScale pins the scale flags each run is checked against: -sites
// is 0 or at least 4 (E14's four unordered pairs), -shards, -flows and -duration are not negative, and
// every refusal names its flag.
func TestCheckScale(t *testing.T) {
	ok := experiments.Config{Seed: 1, Sites: 16, Shards: 2, Flows: 20000, Duration: time.Minute}
	for _, tc := range []struct {
		name string
		edit func(*experiments.Config)
		want string // substring of the error; "" = accepted
	}{
		{"scaled", func(*experiments.Config) {}, ""},
		{"defaults", func(c *experiments.Config) { *c = experiments.Config{} }, ""},
		{"smallest scale", func(c *experiments.Config) { c.Sites = 4 }, ""},
		{"three sites", func(c *experiments.Config) { c.Sites = 3 }, "-sites"},
		{"two sites", func(c *experiments.Config) { c.Sites = 2 }, "-sites"},
		{"one site", func(c *experiments.Config) { c.Sites = 1 }, "-sites"},
		{"negative sites", func(c *experiments.Config) { c.Sites = -5 }, "-sites"},
		{"negative shards", func(c *experiments.Config) { c.Shards = -1 }, "-shards"},
		{"negative flows", func(c *experiments.Config) { c.Flows = -3 }, "-flows"},
		{"negative duration", func(c *experiments.Config) { c.Duration = -time.Second }, "-duration"},
	} {
		c := ok
		tc.edit(&c)
		err := checkScale(c)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestWriteSeriesSorted pins -csv's output order: one file per series,
// announced in sorted label order however the map iterates.
func TestWriteSeriesSorted(t *testing.T) {
	res := &experiments.Result{ID: "EX", Series: map[string]*measure.Series{}}
	var want []string
	for i := 0; i < 16; i++ {
		label := fmt.Sprintf("ny-la/p%02d", i)
		s := measure.NewSeries(label, time.Second)
		s.Add(0, float64(i))
		res.Series[label] = s
		want = append(want, fmt.Sprintf("ex_ny-la_p%02d.csv", i))
	}
	for run := 0; run < 3; run++ {
		dir := t.TempDir()
		var out strings.Builder
		if err := writeSeries(&out, dir, res); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			path := strings.TrimPrefix(strings.TrimSpace(line), "wrote ")
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("announced %s: %v", path, err)
			}
			got = append(got, filepath.Base(path))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d wrote %v, want sorted %v", run, got, want)
		}
	}
}
