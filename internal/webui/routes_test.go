package webui

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"a4nn/internal/health"
	"a4nn/internal/jobs"
	"a4nn/internal/obs"
	"a4nn/internal/tsdb"
)

// censusRow is one row of DESIGN.md §10's route table: a mode ("root"
// for the a4nn and a4nn-serve rows, or "job"), a route, the component it
// reads, and its status while that component is absent.
type censusRow struct {
	mode, route, part string
	absent            int
}

func designRoutes(t *testing.T) []censusRow {
	t.Helper()
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile("(?m)^\\| (`a4nn`, `a4nn-serve`|job) \\| `(/[^`]+)` \\| (observer|health|history) \\| ([0-9]{3}) \\|$")
	var rows []censusRow
	for _, m := range re.FindAllStringSubmatch(string(design), -1) {
		mode := "root"
		if m[1] == "job" {
			mode = "job"
		}
		code, _ := strconv.Atoi(m[4])
		rows = append(rows, censusRow{mode, m[2], m[3], code})
	}
	return rows
}

func sortRows(rows []censusRow) {
	sort.Slice(rows, func(a, b int) bool {
		return rows[a].mode+rows[a].route < rows[b].mode+rows[b].route
	})
}

// censusGet answers GET path on h in-process. The request context is
// already canceled, so /events replays and returns instead of streaming.
func censusGet(h http.Handler, path string) (int, string) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil).WithContext(ctx))
	return rec.Code, rec.Body.String()
}

// censusQuery is the query string each row is requested with, so the
// range query names a series the census runs hold.
const censusQuery = "?series=a4nn_census"

// censusRun builds a run with every component; closed is a finished
// run's, whose history store and journal are closed.
func censusRun(t *testing.T, closed bool) (Run, string) {
	t.Helper()
	o := obs.NewObserver()
	cfg := health.DefaultConfig()
	cfg.SampleInterval = time.Hour
	eng, err := health.New(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := tsdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		db.Append("a4nn_census", 1000*i, float64(i))
	}
	if !closed {
		t.Cleanup(func() { db.Close() })
	} else if err := errors.Join(db.Close(), o.Journal().Close()); err != nil {
		t.Fatal(err)
	}
	return Run{Obs: o, Health: eng, History: db}, dir
}

// subsets is every run made of some of full's components.
func subsets(full Run) []Run {
	var runs []Run
	for mask := 0; mask < 8; mask++ {
		var run Run
		if mask&1 != 0 {
			run.Obs = full.Obs
		}
		if mask&2 != 0 {
			run.Health = full.Health
		}
		if mask&4 != 0 {
			run.History = full.History
		}
		runs = append(runs, run)
	}
	return runs
}

// TestRouteCensus holds runRoutes to DESIGN.md §10's route table and
// GETs every row in every mode: the a4nn listener's handler and a
// Server with each subset of a run's components (a row answers 200 when
// its component is there and its absent status when not), and the job
// prefix for an unknown id (404), a job without a run environment yet
// (its absent status), and running and finished jobs (200).
func TestRouteCensus(t *testing.T) {
	var want []censusRow
	for _, rt := range runRoutes {
		absent := http.StatusServiceUnavailable
		if rt.absent == "" {
			absent = http.StatusOK
		}
		want = append(want,
			censusRow{"root", rt.pattern, rt.part, http.StatusNotFound},
			censusRow{"job", jobPath("/api/jobs/{id}", rt.pattern), rt.part, absent})
	}
	got := designRoutes(t)
	sortRows(want)
	sortRows(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DESIGN.md §10 route table:\n%v\nrunRoutes:\n%v", got, want)
	}

	full, _ := censusRun(t, false)
	check := func(mode string, h http.Handler, run Run) {
		t.Helper()
		for _, rt := range runRoutes {
			wantCode := http.StatusNotFound
			if run.has(rt.part) {
				wantCode = http.StatusOK
			}
			if code, body := censusGet(h, rt.pattern+censusQuery); code != wantCode {
				t.Errorf("%s %+v: GET %s = %d, want %d: %s", mode, run, rt.pattern, code, wantCode, body)
			}
		}
	}
	for _, run := range subsets(full) {
		if run.Obs != nil { // an a4nn metrics listener always has its observer
			check("a4nn", NewRunMux(run), run)
		}
		srv, err := New(testStore(t))
		if err != nil {
			t.Fatal(err)
		}
		srv.SetRun(run)
		check("a4nn-serve", srv, run)
	}

	finished, finishedDir := censusRun(t, true)
	states := map[string]Run{"queued": {}, "running": full, "finished": finished}
	mux := http.NewServeMux()
	mountJobRuns(mux, func(id string) (Run, error) {
		run, ok := states[id]
		if !ok {
			return Run{}, fmt.Errorf("%w: %s", jobs.ErrUnknownJob, id)
		}
		return run, nil
	})
	for _, rt := range runRoutes {
		for id, wantCode := range map[string]int{"ghost": http.StatusNotFound, "queued": http.StatusServiceUnavailable,
			"running": http.StatusOK, "finished": http.StatusOK} {
			wantBody := map[string]string{"ghost": "unknown job", "queued": rt.absent}[id]
			if id == "queued" && rt.absent == "" {
				wantCode = http.StatusOK
			}
			path := jobPath("/api/jobs/"+id, rt.pattern) + censusQuery
			if code, body := censusGet(mux, path); code != wantCode || !strings.Contains(body, wantBody) {
				t.Errorf("GET %s = %d %q, want %d with %q", path, code, body, wantCode, wantBody)
			}
		}
	}

	// A finished job's history is its closed store: the same answer as a
	// fresh read of the file it flushed.
	file, err := tsdb.OpenRead(finishedDir)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := file.Query("a4nn_census", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, body := censusGet(mux, "/api/jobs/finished/query"+censusQuery)
	var gotRes tsdb.Result
	if err := json.Unmarshal([]byte(body), &gotRes); err != nil || !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("finished job query %+v (%v), file %+v", gotRes, err, wantRes)
	}
}
