package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestHandlerMetrics(t *testing.T) {
	reg := goldenRegistry()
	srv := httptest.NewServer(Handler(reg, NewJournal(8)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The HTTP scrape must round-trip through the same parser the
	// golden-file test uses.
	samples, _, err := parseScrape(string(body))
	if err != nil {
		t.Fatal(err)
	}
	if v := samples[`tango_tunnel_tx_total{path="1",site="ny"}`]; v != 40 {
		t.Fatalf("scraped counter = %v, want 40", v)
	}
}

func TestHandlerTrace(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		j.Record(time.Duration(i)*time.Second, KindQueueDrop, 0, 0, int64(100+i), "trunk/la/GTT")
	}
	srv := httptest.NewServer(Handler(NewRegistry(), j))
	defer srv.Close()

	get := func(url string) (int, []byte) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get(srv.URL + "/trace?n=2")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var recs []struct {
		Seq  uint64 `json:"seq"`
		Kind string `json:"kind"`
		V    int64  `json:"v"`
	}
	if err := json.Unmarshal(body, &recs); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, body)
	}
	if len(recs) != 2 || recs[0].Seq != 3 || recs[1].V != 104 {
		t.Fatalf("trace tail wrong: %+v", recs)
	}

	if code, _ := get(srv.URL + "/trace"); code != http.StatusOK {
		t.Fatalf("unbounded trace status %d", code)
	}
	if code, _ := get(srv.URL + "/trace?n=banana"); code != http.StatusBadRequest {
		t.Fatalf("bad n status %d, want 400", code)
	}
	if code, _ := get(srv.URL + "/trace?n=-1"); code != http.StatusBadRequest {
		t.Fatalf("negative n status %d, want 400", code)
	}
}
