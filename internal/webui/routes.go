package webui

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"a4nn/internal/health"
	"a4nn/internal/obs"
	"a4nn/internal/tsdb"
)

// Run is what a run's live routes read: its observer (metrics, spans and
// event journal), its health engine and its history store. Any of them
// may be nil.
type Run struct {
	Obs     *obs.Observer
	Health  *health.Engine
	History *tsdb.DB
}

// has reports whether the run has the named component.
func (run Run) has(part string) bool {
	switch part {
	case "observer":
		return run.Obs != nil
	case "health":
		return run.Health != nil
	default: // "history"
		return run.History != nil
	}
}

// route is one row of the live-route table.
type route struct {
	pattern string // the path at the root; under a job, jobPath(pattern)
	part    string // the component the row reads: observer, health or history
	// absent is the 503 body a job answers while it lacks part; a row
	// with none is served without its component.
	absent string
	serve  func(w http.ResponseWriter, r *http.Request, run Run, base string)
}

// runRoutes is every live route of a run, the one place they are listed.
// A fixed run mounts them at the root (mountRun), a job service under
// /api/jobs/{id} (mountJobRuns). DESIGN §10's route table lists the same
// rows; TestRouteCensus holds the two equal.
var runRoutes = []route{
	{"/metrics", "observer", "job metrics not started", func(w http.ResponseWriter, r *http.Request, run Run, _ string) {
		run.Obs.Registry().MetricsHandler().ServeHTTP(w, r)
	}},
	{"/metrics.json", "observer", "job metrics not started", func(w http.ResponseWriter, r *http.Request, run Run, _ string) {
		run.Obs.Registry().JSONHandler().ServeHTTP(w, r)
	}},
	{"/debug/spans", "observer", "job spans not started", func(w http.ResponseWriter, r *http.Request, run Run, _ string) {
		run.Obs.Tracer().SpansHandler().ServeHTTP(w, r)
	}},
	{"/events", "observer", "event journal unavailable", func(w http.ResponseWriter, r *http.Request, run Run, _ string) {
		serveEvents(w, r, run.Obs.Journal())
	}},
	// The page itself reads nothing; its streams are the rows it names.
	{"/dashboard", "observer", "", func(w http.ResponseWriter, r *http.Request, _ Run, base string) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, dashboardPage(jobPath(base, "/events"), jobPath(base, "/api/alerts"),
			jobPath(base, "/api/query"), jobPath(base, "/api/series")))
	}},
	{"/healthz", "health", "health engine not started", func(w http.ResponseWriter, r *http.Request, run Run, _ string) {
		health.HealthzHandler(run.Health).ServeHTTP(w, r)
	}},
	{"/api/alerts", "health", "health engine not started", func(w http.ResponseWriter, r *http.Request, run Run, _ string) {
		health.AlertsHandler(run.Health).ServeHTTP(w, r)
	}},
	{"/api/query", "history", "history not recorded (run with -history)", func(w http.ResponseWriter, r *http.Request, run Run, _ string) {
		serveQuery(w, r, run.History)
	}},
	{"/api/series", "history", "history not recorded (run with -history)", func(w http.ResponseWriter, r *http.Request, run Run, _ string) {
		writeJSON(w, run.History.Series())
	}},
}

// jobPath is a row's path under base: the root path itself when base is
// empty, else base plus the root path without its leading /api, so
// /api/alerts under /api/jobs/{id} is /api/jobs/{id}/alerts.
func jobPath(base, pattern string) string {
	if base == "" {
		return pattern
	}
	return base + strings.TrimPrefix(pattern, "/api")
}

// mountRun mounts run's rows at the root of mux, each only when run has
// the component it reads: an absent one answers 404.
func mountRun(mux *http.ServeMux, run Run) {
	for _, rt := range runRoutes {
		if run.has(rt.part) {
			mux.HandleFunc("GET "+rt.pattern, func(w http.ResponseWriter, r *http.Request) {
				rt.serve(w, r, run, "")
			})
		}
	}
}

// mountJobRuns mounts every row under /api/jobs/{id}, resolving the job's
// run per request: an unknown id answers 404 and a component the job
// does not have yet 503.
func mountJobRuns(mux *http.ServeMux, resolve func(id string) (Run, error)) {
	for _, rt := range runRoutes {
		mux.HandleFunc("GET "+jobPath("/api/jobs/{id}", rt.pattern), func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			run, err := resolve(id)
			if err != nil {
				jobError(w, err)
				return
			}
			if rt.absent != "" && !run.has(rt.part) {
				http.Error(w, rt.absent, http.StatusServiceUnavailable)
				return
			}
			rt.serve(w, r, run, "/api/jobs/"+url.PathEscape(id))
		})
	}
}

// NewRunMux returns a mux serving run's live routes at its root, the
// handler of cmd/a4nn's metrics listener.
func NewRunMux(run Run) *http.ServeMux {
	mux := http.NewServeMux()
	mountRun(mux, run)
	return mux
}
