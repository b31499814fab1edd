package webui

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"a4nn/internal/jobs"
	"a4nn/internal/obs"
)

// jobServer builds a webui server with the job service mounted.
func jobServer(t *testing.T, slots int) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	srv, err := New(testStore(t))
	if err != nil {
		t.Fatal(err)
	}
	m, err := jobs.NewManager(jobs.Options{Root: t.TempDir(), FleetSlots: slots})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	srv.SetJobs(m)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, m
}

func doReq(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rdr *strings.Reader
	if body == "" {
		rdr = strings.NewReader("")
	} else {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 64*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

const smallJobBody = `{"id":"alpha","population":4,"offspring":4,"generations":2,"epochs":8,"seed":42}`

func waitJobState(t *testing.T, m *jobs.Manager, id string, want jobs.State) jobs.Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	if st.State != want {
		t.Fatalf("state = %s (%s), want %s", st.State, st.Error, want)
	}
	return st
}

func TestJobAPILifecycle(t *testing.T) {
	ts, m := jobServer(t, 2)

	code, body := doReq(t, "POST", ts.URL+"/api/jobs", smallJobBody)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st jobs.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "alpha" || st.Config.Priority != 10 {
		t.Fatalf("status = %+v", st)
	}

	waitJobState(t, m, "alpha", jobs.StateCompleted)

	code, body = doReq(t, "GET", ts.URL+"/api/jobs/alpha", "")
	if code != 200 || !strings.Contains(body, `"state": "completed"`) {
		t.Fatalf("get: %d %s", code, body)
	}
	code, body = doReq(t, "GET", ts.URL+"/api/jobs", "")
	if code != 200 || !strings.Contains(body, `"alpha"`) {
		t.Fatalf("list: %d %s", code, body)
	}

	// Per-job observability endpoints answer after the run.
	for _, path := range []string{
		"/api/jobs/alpha/healthz", "/api/jobs/alpha/alerts", "/api/jobs/alpha/dashboard",
		"/api/jobs/alpha/metrics", "/api/jobs/alpha/metrics.json", "/api/jobs/alpha/debug/spans",
	} {
		if code, body := doReq(t, "GET", ts.URL+path, ""); code != 200 {
			t.Fatalf("%s: %d %s", path, code, body)
		}
	}
	_, page := doReq(t, "GET", ts.URL+"/api/jobs/alpha/dashboard", "")
	if !strings.Contains(page, `data-events="/api/jobs/alpha/events"`) {
		t.Fatal("job dashboard not bound to the job's SSE stream")
	}

	// The SSE stream replays the finished run's journal.
	req, err := http.NewRequest("GET", ts.URL+"/api/jobs/alpha/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	buf := make([]byte, 32*1024)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "event: run_start") {
		t.Fatalf("SSE replay missing run_start: %q", string(buf[:n]))
	}
}

// TestJobAPIErrors is the table-driven sweep over the API's failure
// paths: malformed bodies, unknown ids, conflicts, and draining.
func TestJobAPIErrors(t *testing.T) {
	ts, m := jobServer(t, 2)
	if code, body := doReq(t, "POST", ts.URL+"/api/jobs", smallJobBody); code != http.StatusCreated {
		t.Fatalf("seed submit: %d %s", code, body)
	}
	waitJobState(t, m, "alpha", jobs.StateCompleted)

	cases := []struct {
		name         string
		method, path string
		body         string
		wantCode     int
		wantFrag     string
	}{
		{"malformed config JSON", "POST", "/api/jobs", `{"id":`, http.StatusBadRequest, "malformed job config"},
		{"unknown config field", "POST", "/api/jobs", `{"id":"x","poplation":4}`, http.StatusBadRequest, "poplation"},
		{"config wrong type", "POST", "/api/jobs", `{"seed":"forty-two"}`, http.StatusBadRequest, "malformed job config"},
		{"invalid beam", "POST", "/api/jobs", `{"beam":"blinding"}`, http.StatusBadRequest, "beam"},
		{"invalid id", "POST", "/api/jobs", `{"id":"../escape"}`, http.StatusBadRequest, "must match"},
		{"too many devices", "POST", "/api/jobs", `{"devices":5}`, http.StatusBadRequest, "fleet has 2"},
		{"search it would refuse to run", "POST", "/api/jobs", `{"population":-3,"epochs":-1}`, http.StatusBadRequest, "population"},
		{"duplicate job id", "POST", "/api/jobs", smallJobBody, http.StatusConflict, "already exists"},
		{"cancel unknown job", "DELETE", "/api/jobs/ghost", "", http.StatusNotFound, "unknown job"},
		{"cancel completed job", "DELETE", "/api/jobs/alpha", "", http.StatusConflict, "already finished"},
		{"pause unknown job", "POST", "/api/jobs/ghost/pause", "", http.StatusNotFound, "unknown job"},
		{"resume unknown job", "POST", "/api/jobs/ghost/resume", "", http.StatusNotFound, "unknown job"},
		{"status of unknown job", "GET", "/api/jobs/ghost", "", http.StatusNotFound, "unknown job"},
		{"events of unknown job", "GET", "/api/jobs/ghost/events", "", http.StatusNotFound, "unknown job"},
		{"healthz of unknown job", "GET", "/api/jobs/ghost/healthz", "", http.StatusNotFound, "unknown job"},
		{"dashboard of unknown job", "GET", "/api/jobs/ghost/dashboard", "", http.StatusNotFound, "unknown job"},
		{"malformed priority", "POST", "/api/jobs/alpha/priority", `{"priority":"max"}`, http.StatusBadRequest, "malformed priority"},
		{"priority out of range", "POST", "/api/jobs/alpha/priority", `{"priority":250}`, http.StatusBadRequest, "outside [1,99]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := doReq(t, tc.method, ts.URL+tc.path, tc.body)
			if code != tc.wantCode || !strings.Contains(body, tc.wantFrag) {
				t.Fatalf("%s %s → %d %q, want %d containing %q",
					tc.method, tc.path, code, body, tc.wantCode, tc.wantFrag)
			}
		})
	}

	// Submit while draining is its own state, not a validation error.
	m.Drain()
	code, body := doReq(t, "POST", ts.URL+"/api/jobs", `{"id":"late"}`)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("submit while draining: %d %s", code, body)
	}
}

func TestFleetView(t *testing.T) {
	ts, m := jobServer(t, 2)
	if code, body := doReq(t, "POST", ts.URL+"/api/jobs", smallJobBody); code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	waitJobState(t, m, "alpha", jobs.StateCompleted)

	code, body := doReq(t, "GET", ts.URL+"/api/fleet", "")
	if code != 200 {
		t.Fatalf("fleet: %d %s", code, body)
	}
	var view struct {
		Fleet struct {
			Capacity int `json:"capacity"`
			InUse    int `json:"in_use"`
		} `json:"fleet"`
		Draining bool `json:"draining"`
		Jobs     []struct {
			ID       string `json:"id"`
			State    string `json:"state"`
			Progress struct {
				ModelsDone int `json:"models_done"`
			} `json:"progress"`
			Health *struct {
				Status string `json:"status"`
			} `json:"health"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("fleet JSON: %v\n%s", err, body)
	}
	if view.Fleet.Capacity != 2 || view.Fleet.InUse != 0 {
		t.Fatalf("fleet = %+v", view.Fleet)
	}
	if len(view.Jobs) != 1 || view.Jobs[0].ID != "alpha" || view.Jobs[0].State != "completed" {
		t.Fatalf("jobs = %+v", view.Jobs)
	}
	if view.Jobs[0].Progress.ModelsDone != 8 {
		t.Fatalf("models done = %d, want 8", view.Jobs[0].Progress.ModelsDone)
	}
	if view.Jobs[0].Health == nil || view.Jobs[0].Health.Status == "" {
		t.Fatalf("health missing: %+v", view.Jobs[0])
	}

	code, page := doReq(t, "GET", ts.URL+"/fleet", "")
	if code != 200 || !strings.Contains(page, "/api/fleet") || !strings.Contains(page, "A4NN fleet") {
		t.Fatalf("fleet page: %d", code)
	}
}

func TestNoJobsEndpointsWithoutManager(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := doReq(t, "POST", ts.URL+"/api/jobs", smallJobBody); code != 404 && code != 405 {
		t.Fatalf("POST /api/jobs without manager: %d", code)
	}
	if code, _ := doReq(t, "GET", ts.URL+"/api/fleet", ""); code != 404 {
		t.Fatalf("GET /api/fleet without manager: %d", code)
	}
}

// TestJobAndFleetMetricsEndpoints drives two concurrent jobs and
// asserts the three metrics surfaces: each job's own scope endpoint,
// the fleet fair-share audit, and the shared /metrics roll-up with
// job-labelled series — which must drop those labels once the jobs
// are gone (the cardinality bound).
func TestJobAndFleetMetricsEndpoints(t *testing.T) {
	srv, err := New(testStore(t))
	if err != nil {
		t.Fatal(err)
	}
	observer := obs.NewObserver()
	srv.SetObserver(observer)
	m, err := jobs.NewManager(jobs.Options{Root: t.TempDir(), FleetSlots: 2, Obs: observer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	srv.SetJobs(m)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Both jobs must still run when the test reads the fleet and cancels
	// them: 50 generations (~200 surrogate models) could finish first on
	// a fast host, 2000 take seconds.
	for _, id := range []string{"alpha", "beta"} {
		body := `{"id":"` + id + `","population":4,"offspring":4,"generations":2000,"epochs":8,"seed":7}`
		if code, resp := doReq(t, "POST", ts.URL+"/api/jobs", body); code != http.StatusCreated {
			t.Fatalf("submit %s: %d %s", id, code, resp)
		}
	}
	// Wait until both scopes exist (the searches have started their
	// observers).
	deadline := time.Now().Add(30 * time.Second)
	for {
		a, _ := m.JobRegistry("alpha")
		b, _ := m.JobRegistry("beta")
		if a != nil && b != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job scopes never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Per-job endpoint: each job's own undecorated series.
	for _, id := range []string{"alpha", "beta"} {
		code, body := doReq(t, "GET", ts.URL+"/api/jobs/"+id+"/metrics", "")
		if code != http.StatusOK {
			t.Fatalf("job metrics %s: %d %s", id, code, body)
		}
		if !strings.Contains(body, "a4nn_events_emitted_total") {
			t.Errorf("job metrics %s missing journal series:\n%s", id, body)
		}
		if strings.Contains(body, `job="`) {
			t.Errorf("job metrics %s should be undecorated:\n%s", id, body)
		}
	}

	// Fleet audit: entitled vs measured share gauges for both jobs.
	code, body := doReq(t, "GET", ts.URL+"/api/fleet/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("fleet metrics: %d %s", code, body)
	}
	for _, want := range []string{
		`a4nn_fleet_entitled_share{job="alpha"}`,
		`a4nn_fleet_entitled_share{job="beta"}`,
		`a4nn_fleet_measured_share{job="alpha"}`,
		`a4nn_fleet_measured_share{job="beta"}`,
		"a4nn_fleet_capacity_slots 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet metrics missing %q:\n%s", want, body)
		}
	}
	// Equal priorities: each job is entitled to half the fleet.
	if !strings.Contains(body, `a4nn_fleet_entitled_share{job="alpha"} 0.5`) {
		t.Errorf("entitled share not 0.5 for equal weights:\n%s", body)
	}

	// Shared /metrics: the same job series, rolled up with labels.
	code, body = doReq(t, "GET", ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("shared metrics: %d", code)
	}
	for _, want := range []string{
		`a4nn_events_emitted_total{job="alpha"}`,
		`a4nn_events_emitted_total{job="beta"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("shared metrics missing roll-up %q:\n%s", want, body)
		}
	}

	// Terminal jobs retire from the roll-up but keep their own endpoint.
	for _, id := range []string{"alpha", "beta"} {
		doReq(t, "DELETE", ts.URL+"/api/jobs/"+id, "")
		waitJobState(t, m, id, jobs.StateCanceled)
	}
	code, body = doReq(t, "GET", ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("shared metrics after teardown: %d", code)
	}
	if strings.Contains(body, `job="`) {
		t.Errorf("job-labelled series survived teardown:\n%s", body)
	}
	code, body = doReq(t, "GET", ts.URL+"/api/jobs/alpha/metrics", "")
	if code != http.StatusOK || !strings.Contains(body, "a4nn_events_emitted_total") {
		t.Errorf("terminal job metrics = %d:\n%s", code, body)
	}
}
