package webui

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"a4nn/internal/obs"
	"a4nn/internal/tsdb"
)

// historyServer mounts a server over a store pre-filled with one
// two-cluster series (a gap between 1000..2000 and 60000..61000 ms).
func historyServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := New(testStore(t))
	if err != nil {
		t.Fatal(err)
	}
	db, err := tsdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, ts := range []int64{1000, 1500, 2000, 60000, 60500, 61000} {
		db.Append("acc", ts, float64(ts)/1000)
	}
	srv.SetRun(Run{History: db})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func TestQueryEndpoint(t *testing.T) {
	ts := historyServer(t)

	code, body := get(t, ts.URL+"/api/query?series=acc&step=1000")
	if code != 200 {
		t.Fatalf("query: %d\n%s", code, body)
	}
	var res tsdb.Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Series != "acc" || res.StepMS != 1000 {
		t.Fatalf("result header: %+v", res)
	}
	gaps := 0
	for _, p := range res.Points {
		if p.Gap {
			gaps++
		}
	}
	if len(res.Points) != 4 || gaps != 1 {
		t.Fatalf("points = %d with %d gaps, want 4 with 1: %+v", len(res.Points), gaps, res.Points)
	}

	// Windowed query trims to the first cluster.
	code, body = get(t, ts.URL+"/api/query?series=acc&from=0&to=3000")
	if code != 200 || strings.Contains(body, "60000") {
		t.Fatalf("windowed query leaked out-of-range samples: %d\n%s", code, body)
	}

	// Error mapping: missing parameter, garbage bounds, unknown series.
	if code, _ = get(t, ts.URL+"/api/query"); code != 400 {
		t.Errorf("missing series: %d, want 400", code)
	}
	if code, _ = get(t, ts.URL+"/api/query?series=acc&from=yesterday"); code != 400 {
		t.Errorf("garbage from: %d, want 400", code)
	}
	if code, _ = get(t, ts.URL+"/api/query?series=nope"); code != 404 {
		t.Errorf("unknown series: %d, want 404", code)
	}
}

func TestSeriesEndpoint(t *testing.T) {
	ts := historyServer(t)
	code, body := get(t, ts.URL+"/api/series")
	if code != 200 {
		t.Fatalf("series: %d\n%s", code, body)
	}
	var infos []tsdb.SeriesInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "acc" || infos[0].Samples != 6 {
		t.Fatalf("catalogue: %+v", infos)
	}
}

func TestQueryEndpointsAbsentWithoutHistory(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := get(t, ts.URL+"/api/query?series=acc"); code != 404 {
		t.Errorf("/api/query without a history store: %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/api/series"); code != 404 {
		t.Errorf("/api/series without a history store: %d, want 404", code)
	}
}

// TestQueryHandlerNilDB: a job whose run records no history answers its
// range query 503 with a hint naming -history, not a panic.
func TestQueryHandlerNilDB(t *testing.T) {
	mux := http.NewServeMux()
	mountJobRuns(mux, func(string) (Run, error) { return Run{Obs: obs.NewObserver()}, nil })
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	code, body := get(t, ts.URL+"/api/jobs/j1/query?series=acc")
	if code != 503 || !strings.Contains(body, "-history") {
		t.Fatalf("nil-db query: %d\n%s", code, body)
	}
}
