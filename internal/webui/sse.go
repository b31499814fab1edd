package webui

import (
	"html/template"
	"io"
	"net/http"
	"strconv"
	"strings"

	"a4nn/internal/obs"
)

// serveEvents streams a journal's events as Server-Sent Events. Each
// event is framed with its journal sequence number as the SSE id and
// its type as the SSE event name, so EventSource clients dispatch on
// type and, on reconnect, resume from where they left off: the
// standard Last-Event-ID header (or a last_id query parameter, for
// curl) replays everything still in the journal's ring with a greater
// sequence number before going live.
//
// Replay and live delivery are one loop over one cursor into the
// journal's ring, so no event can fall between them. A client that
// stops reading is evicted once the ring overwrites an event it has
// not been sent, and the handler returns — hundreds of dashboards can
// never stall the search.
func serveEvents(w http.ResponseWriter, r *http.Request, j *obs.Journal) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var last uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		last, _ = strconv.ParseUint(v, 10, 64)
	} else if v := r.URL.Query().Get("last_id"); v != "" {
		last, _ = strconv.ParseUint(v, 10, 64)
	}
	sub := j.SubscribeSince(last)
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	var batch []obs.Event
	var frame []byte // the connection's one frame buffer
	var err error
	// Until the subscriber closes with the run, or is evicted.
	for open := true; open; {
		batch, open = sub.Read(batch)
		for i := range batch {
			if batch[i].Seq <= last {
				continue // a resynced follower re-ingests sequence numbers already sent
			}
			last = batch[i].Seq
			if frame, err = writeSSE(w, frame, &batch[i]); err != nil {
				return
			}
		}
		fl.Flush()
		if open && len(batch) == 0 {
			select {
			case <-r.Context().Done():
				return
			case <-sub.Wake():
			}
		}
	}
}

// writeSSE frames one event in text/event-stream format into buf, with
// the journal's own line as the data, writes the frame to w, and
// returns buf for the connection's next event.
func writeSSE(w io.Writer, buf []byte, e *obs.Event) ([]byte, error) {
	buf = append(buf[:0], "id: "...)
	buf = strconv.AppendUint(buf, e.Seq, 10)
	buf = append(buf, "\nevent: "...)
	buf = append(buf, e.Type...)
	buf = append(buf, "\ndata: "...)
	buf, err := e.AppendJSON(buf)
	if err != nil {
		return buf, err
	}
	buf = append(buf, "\n\n"...)
	_, err = w.Write(buf)
	return buf, err
}

// dashboardPage rebinds the dashboard to a different SSE stream,
// alert endpoint, and history-query endpoints — the per-job dashboards
// point one shared page at /api/jobs/{id}/{events,alerts,query,series}.
func dashboardPage(eventsURL, alertsURL, queryURL, seriesURL string) string {
	page := strings.Replace(dashboardHTML, `data-events="/events"`,
		`data-events="`+template.HTMLEscapeString(eventsURL)+`"`, 1)
	page = strings.Replace(page, `data-alerts="/api/alerts"`,
		`data-alerts="`+template.HTMLEscapeString(alertsURL)+`"`, 1)
	page = strings.Replace(page, `data-query="/api/query"`,
		`data-query="`+template.HTMLEscapeString(queryURL)+`"`, 1)
	return strings.Replace(page, `data-series="/api/series"`,
		`data-series="`+template.HTMLEscapeString(seriesURL)+`"`, 1)
}

// dashboardHTML is the live dashboard: a single self-contained page
// driven entirely by the /events SSE stream (no polling, no external
// assets). It tracks generation progress, per-device utilization,
// validation-accuracy sparklines, the accuracy-vs-MFLOPs Pareto
// scatter, the epochs saved by predictive termination, and — when the
// health monitor is on — an alert strip fed by the alert events the
// engine re-emits through the journal.
// The page reads its event-stream, alert-backfill, and history-query
// URLs from the <body> data attributes, so dashboardPage can rebind one
// instance to a job-namespaced prefix (/api/jobs/{id}/…) without
// duplicating markup. When the history store is on, every SSE open
// backfills the charts from /api/query before live events resume.
const dashboardHTML = `<!DOCTYPE html>
<html><head><title>A4NN live dashboard</title>
<style>
body { font-family: monospace; margin: 1.5rem; background: #111; color: #ddd; }
h1 { font-size: 1.2rem; } h2 { font-size: 1rem; color: #9cf; margin-bottom: .3rem; }
.grid { display: grid; grid-template-columns: 1fr 1fr; gap: 1.2rem; max-width: 70rem; }
.card { background: #1b1b1b; border: 1px solid #333; padding: .8rem 1rem; border-radius: 4px; }
.big { font-size: 1.6rem; color: #fff; }
.bar { background: #333; height: .7rem; border-radius: 3px; overflow: hidden; margin: .15rem 0; }
.bar > div { background: #4c8; height: 100%; width: 0; }
canvas { background: #161616; border: 1px solid #2a2a2a; width: 100%; }
#log { max-height: 10rem; overflow-y: auto; font-size: .8rem; color: #888; }
.muted { color: #777; font-size: .85rem; }
#conn { float: right; } .ok { color: #4c8; } .bad { color: #e66; }
#alerts { max-width: 70rem; margin-bottom: 1rem; }
.alert { border-left: 4px solid; padding: .3rem .7rem; margin: .25rem 0;
  background: #1b1b1b; border-radius: 3px; font-size: .85rem; }
.alert.info { border-color: #9cf; } .alert.warning { border-color: #ec5; color: #ec5; }
.alert.critical { border-color: #e66; color: #e66; }
.alert .cnt { float: right; color: #777; }
</style></head><body data-events="/events" data-alerts="/api/alerts" data-query="/api/query" data-series="/api/series">
<h1>A4NN live dashboard <span id="conn" class="bad">connecting…</span></h1>
<div id="alerts"></div>
<div class="grid">
<div class="card"><h2>Generation</h2>
  <div class="big" id="gen">–</div>
  <div class="bar"><div id="genbar"></div></div>
  <div class="muted" id="gendetail">waiting for events</div></div>
<div class="card"><h2>Prediction savings</h2>
  <div class="big"><span id="saved">0</span> epochs saved</div>
  <div class="muted"><span id="terms">0</span> early terminations ·
    <span id="faults">0</span> faults · <span id="retries">0</span> retries ·
    <span id="resumes">0</span> resumes · <span id="quar">0</span> quarantined</div></div>
<div class="card"><h2>Device utilization</h2><div id="devices" class="muted">no generation finished yet</div></div>
<div class="card"><h2>Validation accuracy</h2><canvas id="acc" width="560" height="120"></canvas>
  <div class="muted">last <span id="accn">0</span> epoch reports</div></div>
<div class="card"><h2>Pareto front (accuracy vs MFLOPs)</h2><canvas id="pareto" width="560" height="180"></canvas>
  <div class="muted"><span id="frontn">0</span> non-dominated models</div></div>
<div class="card"><h2>Search progress (best accuracy)</h2><canvas id="prog" width="560" height="120"></canvas>
  <div class="muted"><span id="progn">0</span> points</div></div>
<div class="card"><h2>Event log</h2><div id="log"></div></div>
</div>
<script>
"use strict";
const $ = id => document.getElementById(id);
let tasksDone = 0, tasksTotal = 0, saved = 0, terms = 0, faults = 0, retries = 0,
  resumes = 0, quarantined = 0;
const accs = [], maxAccs = 200;
const prog = [], maxProg = 400;
let front = [];
function logLine(s) {
  const d = $("log"), p = document.createElement("div");
  p.textContent = s; d.prepend(p);
  while (d.childNodes.length > 60) d.removeChild(d.lastChild);
}
function drawAcc() {
  const c = $("acc"), g = c.getContext("2d");
  g.clearRect(0, 0, c.width, c.height);
  if (!accs.length) return;
  g.strokeStyle = "#4c8"; g.beginPath();
  accs.forEach((a, i) => {
    const x = i / Math.max(1, accs.length - 1) * (c.width - 8) + 4;
    const y = c.height - 4 - a / 100 * (c.height - 8);
    i ? g.lineTo(x, y) : g.moveTo(x, y);
  });
  g.stroke();
  $("accn").textContent = accs.length;
}
function drawProg() {
  const c = $("prog"), g = c.getContext("2d");
  g.clearRect(0, 0, c.width, c.height);
  if (!prog.length) return;
  g.strokeStyle = "#9cf"; g.beginPath();
  prog.forEach((v, i) => {
    const x = i / Math.max(1, prog.length - 1) * (c.width - 8) + 4;
    const y = c.height - 4 - v / 100 * (c.height - 8);
    i ? g.lineTo(x, y) : g.moveTo(x, y);
  });
  g.stroke();
  $("progn").textContent = prog.length;
}
function renderDevices(pcts) {
  $("devices").innerHTML = "";
  pcts.forEach((pct, i) => {
    if (pct === undefined) return;
    const row = document.createElement("div");
    row.innerHTML = "dev " + i + " " + pct.toFixed(0) +
      '%<div class="bar"><div style="width:' + Math.min(100, pct).toFixed(1) + '%"></div></div>';
    $("devices").appendChild(row);
  });
}
function drawPareto() {
  const c = $("pareto"), g = c.getContext("2d");
  g.clearRect(0, 0, c.width, c.height);
  if (!front.length) return;
  const maxF = Math.max(...front.map(p => p.mflops || 0), 1);
  g.fillStyle = "#9cf";
  front.forEach(p => {
    const x = (p.mflops || 0) / maxF * (c.width - 16) + 8;
    const y = c.height - 8 - (p.acc || 0) / 100 * (c.height - 16);
    g.beginPath(); g.arc(x, y, 3, 0, 7); g.fill();
  });
  $("frontn").textContent = front.length;
}
function handle(type, e) {
  switch (type) {
  case "run_start":
    logLine("run started: " + (e.devices || 0) + " devices, " + (e.epochs || 0) + " max epochs"); break;
  case "generation_start":
    tasksTotal = e.tasks || 0; tasksDone = 0;
    $("gen").textContent = "gen " + (e.gen || 0);
    $("gendetail").textContent = tasksTotal + " tasks on " + (e.devices || 0) + " devices";
    $("genbar").style.width = "0%"; break;
  case "model_done":
    tasksDone++;
    if (tasksTotal) $("genbar").style.width = (100 * tasksDone / tasksTotal).toFixed(1) + "%";
    break;
  case "generation_end": {
    $("genbar").style.width = "100%";
    const busy = e.device_busy || [], wall = e.wall_seconds || 0;
    renderDevices(busy.map(b => wall > 0 ? 100 * b / wall : 0));
    logLine("gen " + (e.gen || 0) + " done: wall " + (wall).toFixed(1) + "s, " +
      (e.faults || 0) + " faults"); break;
  }
  case "epoch":
    accs.push(e.val_acc || 0); if (accs.length > maxAccs) accs.shift();
    drawAcc(); break;
  case "predict_terminate":
    saved += e.saved_epochs || 0; terms++;
    $("saved").textContent = saved; $("terms").textContent = terms;
    logLine("terminated " + (e.model || "?") + " early: predicted " +
      (e.predicted || 0).toFixed(2) + "%, saved " + (e.saved_epochs || 0) + " epochs");
    break;
  case "pareto_update":
    front = e.front || []; drawPareto();
    if (front.length) {
      prog.push(Math.max(...front.map(p => p.acc || 0)));
      if (prog.length > maxProg) prog.shift();
      drawProg();
    }
    break;
  case "task_fault":
    faults++; $("faults").textContent = faults;
    logLine("fault on device " + (e.device || 0) + ": " + (e.err || "")); break;
  case "task_retry":
    retries++; $("retries").textContent = retries; break;
  case "model_resume":
    resumes++; $("resumes").textContent = resumes;
    logLine("resumed " + (e.model || "?") + " from checkpoint at epoch " + (e.epoch || 0));
    break;
  case "recovery":
    if (e.reason !== "stale") { quarantined++; $("quar").textContent = quarantined; }
    logLine("recovery: " + (e.msg || e.reason || "")); break;
  case "run_end":
    logLine("run finished: " + (e.tasks || 0) + " models, " +
      (e.saved_epochs || 0) + " epochs saved"); break;
  case "alert": {
    const id = e.alert || "?";
    let row = alerts.get(id);
    if (!row) {
      row = document.createElement("div");
      alerts.set(id, row);
      $("alerts").prepend(row);
    }
    row.className = "alert " + (e.severity || "info");
    row.innerHTML = '<span class="cnt">×' + (e.count || 1) + "</span><b>" +
      (e.severity || "info") + "</b> [" + (e.monitor || "?") + "] ";
    row.appendChild(document.createTextNode(e.msg || ""));
    logLine("ALERT " + (e.severity || "") + " " + id + ": " + (e.msg || ""));
    break;
  }
  case "alert_resolved": {
    const row = alerts.get(e.alert || "?");
    if (row) { row.remove(); alerts.delete(e.alert || "?"); }
    logLine("resolved " + (e.alert || "?")); break;
  }
  }
}
const alerts = new Map();
// Backfill the alert strip before the SSE stream connects: alerts that
// fired before this page load are only in the engine's active set, not
// in the replayed tail, so a reload would otherwise show a blank strip
// until the next transition. 404 (health disabled) just leaves it empty.
fetch(document.body.dataset.alerts).then(r => r.ok ? r.json() : null).then(d => {
  if (!d || !d.active) return;
  d.active.forEach(a => handle("alert", {alert: a.id, severity: a.severity,
    monitor: a.monitor, msg: a.msg, count: a.count}));
}).catch(() => {});
const types = ["run_start","run_end","generation_start","generation_end","task_dispatch",
  "task_retry","task_fault","straggler","epoch","model_done","predict_converge",
  "predict_terminate","pareto_update","alert","alert_resolved",
  "model_resume","recovery"];
// backfill reseeds the charts from the history store's range-query API
// (404/503 = history off, charts stay live-only). It runs on every SSE
// open — page load AND reconnect — so a dropped connection or a server
// restart no longer resets the sparkline, utilisation bars, and
// search-progress chart to empty; live events then continue on top of
// the recovered history.
function backfill() {
  const q = document.body.dataset.query, s = document.body.dataset.series;
  if (!q) return;
  const get = name =>
    fetch(q + "?series=" + encodeURIComponent(name) + "&step=1000")
      .then(r => r.ok ? r.json() : null).catch(() => null);
  get("a4nn_train_last_accuracy_percent").then(d => {
    if (!d || !d.points || !d.points.length) return;
    accs.length = 0;
    d.points.slice(-maxAccs).forEach(p => accs.push(p.v));
    drawAcc();
  });
  get("a4nn_search_best_fitness_percent").then(d => {
    if (!d || !d.points || !d.points.length) return;
    prog.length = 0;
    d.points.slice(-maxProg).forEach(p => prog.push(p.v));
    drawProg();
  });
  if (!s) return;
  fetch(s).then(r => r.ok ? r.json() : null).then(list => {
    if (!list) return;
    const devs = list.filter(i => i.name.indexOf('a4nn_sched_device_util_pct{device="') === 0);
    if (!devs.length) return;
    Promise.all(devs.map(i => get(i.name))).then(results => {
      const pcts = [];
      results.forEach((d, i) => {
        if (!d || !d.points || !d.points.length) return;
        const m = devs[i].name.match(/device="(\d+)"/);
        if (m) pcts[+m[1]] = d.points[d.points.length - 1].v;
      });
      if (pcts.length) renderDevices(pcts);
    });
  }).catch(() => {});
}
const es = new EventSource(document.body.dataset.events);
es.onopen = () => {
  const c = $("conn"); c.textContent = "live"; c.className = "ok";
  backfill();
};
es.onerror = () => { const c = $("conn"); c.textContent = "reconnecting…"; c.className = "bad"; };
types.forEach(t => es.addEventListener(t, ev => handle(t, JSON.parse(ev.data))));
</script>
</body></html>
`
