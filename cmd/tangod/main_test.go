package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tango/internal/obs"
)

func TestCheckCadences(t *testing.T) {
	ok := cadences{
		Probe: 20 * time.Millisecond, Status: 2 * time.Second,
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

// TestReadyz: /readyz answers 503 until the handshake has established
// the pair and 200 after, while /metrics serves throughout.
func TestReadyz(t *testing.T) {
	established := make(chan struct{})
	srv := httptest.NewServer(handler(obs.NewRegistry(), obs.NewJournal(8), established))
	defer srv.Close()
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before establishment = %d, want 503", got)
	}
	if got := status("/metrics"); got != http.StatusOK {
		t.Fatalf("/metrics before establishment = %d, want 200", got)
	}
	close(established)
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after establishment = %d, want 200", got)
	}
}
