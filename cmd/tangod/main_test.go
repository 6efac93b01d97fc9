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
	for _, tc := range []struct {
		name   string
		status time.Duration
		want   string // substring of the error; "" = accepted
	}{
		{"defaults", 2 * time.Second, ""},
		{"zero status", 0, "-status-every"},
	} {
		err := checkCadences(tc.status)
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
