package main

import (
	"strings"
	"testing"
	"time"
)

func TestCheckCadences(t *testing.T) {
	ok := cadences{
		Hours: 2, Report: 10 * time.Minute, Probe: 20 * time.Millisecond, Status: 2 * time.Second,
		ReportEvery: 25 * time.Millisecond, DecideEvery: 100 * time.Millisecond,
	}
	for _, tc := range []struct {
		name string
		edit func(*cadences)
		want string // substring of the error; "" = accepted
	}{
		{"defaults", func(*cadences) {}, ""},
		{"reports off", func(c *cadences) { c.ReportEvery = 0 }, ""},
		{"controller idle", func(c *cadences) { c.DecideEvery = 0 }, ""},
		{"zero hours", func(c *cadences) { c.Hours = 0 }, "-hours"},
		{"negative hours", func(c *cadences) { c.Hours = -1 }, "-hours"},
		{"zero report", func(c *cadences) { c.Report = 0 }, "-report must"},
		{"negative report", func(c *cadences) { c.Report = -time.Minute }, "-report must"},
		{"zero probe interval", func(c *cadences) { c.Probe = 0 }, "-probe-interval"},
		{"zero status", func(c *cadences) { c.Status = 0 }, "-status-every"},
		{"negative report-every", func(c *cadences) { c.ReportEvery = -1 }, "-report-every"},
		{"negative decide-every", func(c *cadences) { c.DecideEvery = -1 }, "-decide-every"},
	} {
		c := ok
		tc.edit(&c)
		err := checkCadences(c)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
