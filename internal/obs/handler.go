package obs

import (
	"net/http"
	"strconv"
)

// Handler serves a registry and journal over HTTP:
//
//	/metrics  Prometheus text format (the scrape endpoint)
//	/trace    JSON tail of the trace journal (?n=100 bounds it)
//
// tangod mounts this on a real listener next to its /readyz; tests mount
// it on httptest. All underlying state is atomic or mutex-guarded, so
// serving never blocks or perturbs the event loop.
func Handler(reg *Registry, j *Journal) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		n := 0 // whole ring by default
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		if err := j.WriteJSON(w, n); err != nil {
			return
		}
	})
	return mux
}
