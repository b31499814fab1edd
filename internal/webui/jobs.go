package webui

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"

	"a4nn/internal/jobs"
	"a4nn/internal/obs"
	"a4nn/internal/sched"
)

// SetJobs mounts the job-service API backed by a running manager,
// turning the server from a results viewer into the submission
// endpoint of a multi-tenant search service:
//
//	POST   /api/jobs                submit a search (JSON jobs.Config)
//	GET    /api/jobs                all job statuses
//	GET    /api/jobs/{id}           one job's status
//	DELETE /api/jobs/{id}           cancel
//	POST   /api/jobs/{id}/pause     stop granting generations
//	POST   /api/jobs/{id}/resume    re-enable a paused job
//	POST   /api/jobs/{id}/priority  change fair-share weight {"priority":n}
//	GET    /api/fleet               fleet + per-job aggregate view
//	GET    /api/fleet/metrics       fair-share audit as Prometheus gauges
//	GET    /fleet                   the fleet dashboard page
//
// and every live route of each job's run under /api/jobs/{id} (routes.go):
// /api/jobs/{id}/events, /metrics, /healthz, /alerts, /query, /dashboard
// and the rest. A job's metrics scope keeps answering after the job ends,
// when the shared /metrics roll-up has retired it, and its history is
// served from its closed store.
//
// Same contract as SetRun: at most once, before serving; nil or repeat
// is a no-op.
func (s *Server) SetJobs(m *jobs.Manager) {
	if m == nil || s.jobs != nil {
		return
	}
	s.jobs = m
	s.mux.HandleFunc("POST /api/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /api/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /api/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /api/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("POST /api/jobs/{id}/pause", s.handleJobPause)
	s.mux.HandleFunc("POST /api/jobs/{id}/resume", s.handleJobResume)
	s.mux.HandleFunc("POST /api/jobs/{id}/priority", s.handleJobPriority)
	mountJobRuns(s.mux, func(id string) (Run, error) {
		env, err := m.Env(id) // nil until the job starts: a Run with no component
		return Run{Obs: env.Observer(), Health: env.Health(), History: env.History()}, err
	})
	s.mux.HandleFunc("GET /api/fleet", s.handleFleet)
	s.mux.HandleFunc("GET /api/fleet/metrics", s.handleFleetMetrics)
	s.mux.HandleFunc("GET /fleet", s.handleFleetPage)
}

// jobError maps manager errors to HTTP statuses.
func jobError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, jobs.ErrDuplicateID), errors.Is(err, jobs.ErrTerminal):
		status = http.StatusConflict
	case errors.Is(err, jobs.ErrDraining):
		status = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), status)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var jc jobs.Config
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jc); err != nil {
		http.Error(w, fmt.Sprintf("malformed job config: %v", err), http.StatusBadRequest)
		return
	}
	st, err := s.jobs.Submit(jc)
	if err != nil {
		jobError(w, err)
		return
	}
	w.Header().Set("Location", "/api/jobs/"+url.PathEscape(st.ID))
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, st)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.jobs.List())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		jobError(w, err)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.jobs.Cancel(id); err != nil {
		jobError(w, err)
		return
	}
	st, err := s.jobs.Get(id)
	if err != nil {
		jobError(w, err)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleJobPause(w http.ResponseWriter, r *http.Request) {
	if err := s.jobs.Pause(r.PathValue("id")); err != nil {
		jobError(w, err)
		return
	}
	st, _ := s.jobs.Get(r.PathValue("id"))
	writeJSON(w, st)
}

func (s *Server) handleJobResume(w http.ResponseWriter, r *http.Request) {
	if err := s.jobs.ResumeJob(r.PathValue("id")); err != nil {
		jobError(w, err)
		return
	}
	st, _ := s.jobs.Get(r.PathValue("id"))
	writeJSON(w, st)
}

func (s *Server) handleJobPriority(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Priority int `json:"priority"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<10)).Decode(&body); err != nil {
		http.Error(w, fmt.Sprintf("malformed priority body: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.jobs.SetPriority(r.PathValue("id"), body.Priority); err != nil {
		jobError(w, err)
		return
	}
	st, _ := s.jobs.Get(r.PathValue("id"))
	writeJSON(w, st)
}

// handleFleetMetrics exports the fleet's fair-share audit as Prometheus
// gauges: per job, the stride entitlement (weight over total weight)
// against the measured device-seconds share, plus the arbiter's slot
// occupancy. A divergence between the two shares is the scheduler
// failing its fairness contract — exactly the comparison an external
// alerting stack should watch. The registry is rebuilt per request from
// the fleet snapshot; cardinality is bounded by registered (live) jobs.
func (s *Server) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	fs := s.jobs.Fleet().Status()
	reg := obs.NewRegistry()
	FleetGauges(reg, fs)
	for _, j := range fs.Jobs {
		// Job IDs are validated to [a-zA-Z0-9._-]+, safe inside a label.
		label := fmt.Sprintf("{job=%q}", j.ID)
		reg.Gauge("a4nn_fleet_entitled_share" + label).Set(j.EntitledShare)
		reg.Gauge("a4nn_fleet_measured_share" + label).Set(j.MeasuredShare)
		reg.Gauge("a4nn_fleet_slot_seconds" + label).Set(j.SlotSeconds)
		reg.Gauge("a4nn_fleet_wait_seconds" + label).Set(j.WaitSeconds)
		reg.Gauge("a4nn_fleet_held_slots" + label).Set(float64(j.HeldSlots))
	}
	reg.MetricsHandler().ServeHTTP(w, r)
}

// FleetGauges sets the fleet's slot occupancy in reg:
// a4nn_fleet_capacity_slots, a4nn_fleet_in_use_slots and
// a4nn_fleet_waiting_jobs. /api/fleet/metrics serves them, and
// a4nn-serve -history samples them.
func FleetGauges(reg *obs.Registry, fs sched.FleetStatus) {
	reg.Gauge("a4nn_fleet_capacity_slots").Set(float64(fs.Capacity))
	reg.Gauge("a4nn_fleet_in_use_slots").Set(float64(fs.InUse))
	reg.Gauge("a4nn_fleet_waiting_jobs").Set(float64(fs.Waiting))
}

// jobHealthView summarises one job's health engine for the fleet view.
type jobHealthView struct {
	Status string `json:"status"`
	Active int    `json:"active"`
}

// fleetJobView joins one job's lifecycle status with its scheduling and
// health state for the aggregate fleet endpoint.
type fleetJobView struct {
	jobs.Status
	Fleet  *sched.FleetJobStatus `json:"fleet,omitempty"`
	Health *jobHealthView        `json:"health,omitempty"`
}

// fleetView is the GET /api/fleet payload: the arbiter snapshot plus
// every job's status, health, and share accounting.
type fleetView struct {
	Fleet    sched.FleetStatus `json:"fleet"`
	Draining bool              `json:"draining"`
	Jobs     []fleetJobView    `json:"jobs"`
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	fs := s.jobs.Fleet().Status()
	byID := make(map[string]*sched.FleetJobStatus, len(fs.Jobs))
	for i := range fs.Jobs {
		byID[fs.Jobs[i].ID] = &fs.Jobs[i]
	}
	view := fleetView{Fleet: fs, Draining: s.jobs.Draining()}
	sts := s.jobs.List()
	jobs.SortStatuses(sts)
	for _, st := range sts {
		jv := fleetJobView{Status: st, Fleet: byID[st.ID]}
		env, _ := s.jobs.Env(st.ID)
		if eng := env.Health(); eng != nil {
			jv.Health = &jobHealthView{Status: eng.Status().String(), Active: len(eng.ActiveAlerts())}
		}
		view.Jobs = append(view.Jobs, jv)
	}
	writeJSON(w, view)
}

func (s *Server) handleFleetPage(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, fleetHTML)
}

// fleetHTML is the fleet dashboard: one self-contained page polling
// /api/fleet, showing slot occupancy and a card per job — state,
// progress, fair-share accounting, health, and a link to the job's own
// live dashboard.
const fleetHTML = `<!DOCTYPE html>
<html><head><title>A4NN fleet</title>
<style>
body { font-family: monospace; margin: 1.5rem; background: #111; color: #ddd; }
h1 { font-size: 1.2rem; } a { color: #9cf; }
.muted { color: #777; font-size: .85rem; }
.bar { background: #333; height: .7rem; border-radius: 3px; overflow: hidden; margin: .15rem 0; }
.bar > div { background: #4c8; height: 100%; width: 0; }
.grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(22rem, 1fr)); gap: 1rem; max-width: 80rem; }
.card { background: #1b1b1b; border: 1px solid #333; padding: .8rem 1rem; border-radius: 4px; }
.state { padding: 0 .4rem; border-radius: 3px; font-size: .8rem; }
.state.running { background: #253; color: #4c8; } .state.queued { background: #223; color: #9cf; }
.state.paused { background: #332b20; color: #ec5; } .state.completed { background: #234; color: #9cf; }
.state.failed, .state.canceled { background: #322; color: #e66; }
.health.ok { color: #4c8; } .health.degraded { color: #ec5; } .health.critical { color: #e66; }
#slots { margin: .6rem 0 1rem; max-width: 30rem; }
#drain { color: #ec5; display: none; }
canvas { background: #161616; border: 1px solid #2a2a2a; width: 100%; display: none; }
</style></head><body>
<h1>A4NN fleet <span id="drain">· draining</span></h1>
<div id="slots"><span id="slotline" class="muted">loading…</span>
<div class="bar"><div id="slotbar"></div></div>
<canvas id="slothist" width="480" height="70"></canvas></div>
<div id="jobs" class="grid"></div>
<script>
"use strict";
const $ = id => document.getElementById(id);
// Slot-occupancy history, backfilled from the service history store
// (-history on a4nn-serve). Hidden when history is off (non-200).
let slotCap = 0;
function drawSlotHist(points) {
  const c = $("slothist");
  if (!points || !points.length) return;
  c.style.display = "block";
  const g = c.getContext("2d");
  g.clearRect(0, 0, c.width, c.height);
  const max = Math.max(slotCap, ...points.map(p => p.v), 1);
  g.strokeStyle = "#4c8"; g.beginPath();
  points.forEach((p, i) => {
    const x = i / Math.max(1, points.length - 1) * (c.width - 8) + 4;
    const y = c.height - 4 - p.v / max * (c.height - 8);
    i ? g.lineTo(x, y) : g.moveTo(x, y);
  });
  g.stroke();
}
function refreshSlotHist() {
  fetch("/api/query?series=a4nn_fleet_in_use_slots&step=2000")
    .then(r => r.ok ? r.json() : null)
    .then(d => { if (d && d.points) drawSlotHist(d.points); })
    .catch(() => {});
}
refreshSlotHist();
setInterval(refreshSlotHist, 10000);
function card(j) {
  const p = j.progress || {}, f = j.fleet || {}, h = j.health || {};
  const genPct = p.generations_total ? 100 * p.generations_done / p.generations_total : 0;
  const modPct = p.models_total ? 100 * p.models_done / p.models_total : 0;
  const div = document.createElement("div");
  div.className = "card";
  div.innerHTML =
    '<b><a href="/api/jobs/' + encodeURIComponent(j.id) + '/dashboard">' + j.id + '</a></b> ' +
    '<span class="state ' + j.state + '">' + j.state + '</span>' +
    (h.status ? ' <span class="health ' + h.status + '">' + h.status +
      (h.active ? ' (' + h.active + ' alerts)' : '') + '</span>' : '') +
    '<div class="muted">gen ' + (p.generations_done || 0) + '/' + (p.generations_total || 0) +
      ' · ' + (p.models_done || 0) + '/' + (p.models_total || 0) + ' models · best ' +
      (p.best_fitness || 0).toFixed(2) + '%</div>' +
    '<div class="bar"><div style="width:' + genPct.toFixed(1) + '%"></div></div>' +
    '<div class="bar"><div style="width:' + modPct.toFixed(1) + '%"></div></div>' +
    '<div class="muted">weight ' + (f.weight || 0) + ' · ' + (f.held_slots || 0) + ' slots held · ' +
      (f.grants || 0) + ' grants · waited ' + (f.wait_seconds || 0).toFixed(1) + 's</div>' +
    (j.error ? '<div class="muted">error: ' + j.error + '</div>' : '');
  return div;
}
function refresh() {
  fetch("/api/fleet").then(r => r.json()).then(v => {
    const fs = v.fleet || {};
    $("slotline").textContent = (fs.in_use || 0) + "/" + (fs.capacity || 0) +
      " device slots in use · " + (fs.waiting || 0) + " jobs waiting";
    $("slotbar").style.width = fs.capacity ? (100 * fs.in_use / fs.capacity) + "%" : "0";
    slotCap = fs.capacity || 0;
    $("drain").style.display = v.draining ? "inline" : "none";
    const jobsEl = $("jobs");
    jobsEl.innerHTML = "";
    (v.jobs || []).forEach(j => jobsEl.appendChild(card(j)));
  }).catch(() => {});
}
refresh();
setInterval(refresh, 2000);
</script>
</body></html>
`
