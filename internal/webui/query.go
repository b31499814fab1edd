package webui

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"a4nn/internal/tsdb"
)

// serveQuery answers GET /api/query?series=&from=&to=&step= over a
// history store: unix-ms bounds, step-aligned mean downsampling. The
// dashboard uses it to backfill its charts before attaching to the live
// SSE stream, so a reconnect or server restart does not reset every
// chart to empty.
func serveQuery(w http.ResponseWriter, r *http.Request, db *tsdb.DB) {
	series := r.URL.Query().Get("series")
	if series == "" {
		http.Error(w, "missing series parameter", http.StatusBadRequest)
		return
	}
	var bounds [3]int64 // from, to, step
	for i, key := range []string{"from", "to", "step"} {
		raw := r.URL.Query().Get(key)
		if raw == "" {
			continue
		}
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad %s %q: not unix milliseconds", key, raw), http.StatusBadRequest)
			return
		}
		bounds[i] = v
	}
	res, err := db.Query(series, bounds[0], bounds[1], bounds[2])
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, tsdb.ErrNoSeries) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, res)
}
