package a4nn

// End-to-end test of the in-situ health monitor: a fault-injected
// search with a rigged diverging-then-recovering trainer, observed
// live through the full alerting pipeline — monitors → alert manager →
// journal events → SSE stream → /healthz → /api/alerts → alerts.jsonl.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"a4nn/internal/health"
	"a4nn/internal/webui"
)

// divergeTrainer builds models whose training loss rises for the first
// six epochs and recovers afterwards: every model deterministically
// trips the divergence monitor (loss rising ≥ 3 consecutive epochs)
// and then comes back, so its alert must fire, deduplicate across
// checks, and resolve.
type divergeTrainer struct{}

func (divergeTrainer) TrainSamples() int { return 100 }
func (divergeTrainer) NewModel(g *Genome, seed int64) (Trainable, error) {
	return &divergeModel{}, nil
}

type divergeModel struct{ epoch int }

func (m *divergeModel) TrainEpoch() (EpochMetrics, error) {
	m.epoch++
	// Loss: 0.8, 1.1, 1.4, 1.7, 2.0, 2.3, then recovery 1.65, 1.0.
	loss := 0.5 + 0.3*float64(m.epoch)
	if m.epoch > 6 {
		loss = 2.3 - 0.65*float64(m.epoch-6)
	}
	// Accuracy climbs a point per epoch: no collapse, no plateau.
	acc := 50 + float64(m.epoch)
	return EpochMetrics{TrainLoss: loss, TrainAccuracy: acc, ValAccuracy: acc}, nil
}
func (m *divergeModel) SaveState() ([]byte, error) { return nil, nil }
func (m *divergeModel) FLOPs() int64               { return 1e6 }
func (m *divergeModel) NumParams() int             { return 1000 }
func (m *divergeModel) Describe() string           { return "rigged diverging model" }

func TestHealthMonitorEndToEnd(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenCommons(dir)
	if err != nil {
		t.Fatal(err)
	}
	observer := NewObserver()
	if err := observer.Journal().OpenFile(filepath.Join(dir, EventsFile)); err != nil {
		t.Fatal(err)
	}

	healthCfg := DefaultHealthConfig()
	healthCfg.MinCapacity = 0.6 // 1 of 2 devices alive (50%) is critical
	healthCfg.ResolveAfter = 3
	healthCfg.SampleInterval = time.Hour // event-driven checks only: deterministic
	eng, err := NewHealthEngine(healthCfg, observer)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenAlertsFile(filepath.Join(dir, AlertsFile)); err != nil {
		t.Fatal(err)
	}
	eng.Start()

	srv, err := webui.New(store)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetRun(webui.Run{Obs: observer, Health: eng})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A fresh engine is healthy: /healthz answers 200 ok.
	code, rep := getHealthz(t, ts.URL)
	if code != 200 || rep.Status != "ok" {
		t.Fatalf("fresh /healthz = %d %q", code, rep.Status)
	}

	// Live SSE client: alert events ride the same stream as everything
	// else, so the dashboard's alert strip needs no extra endpoint.
	type streamResult struct {
		events []Event
		err    error
	}
	liveDone := make(chan streamResult, 1)
	go func() {
		evs, err := collectSSE(ts.URL+"/events", "", 60*time.Second,
			func(e Event) bool { return e.Type == "run_end" })
		liveDone <- streamResult{evs, err}
	}()

	// Fault-injected standalone search: device 1 of 2 crashes during the
	// final generation, and every model's loss diverges then recovers.
	cfg := DefaultConfig(divergeTrainer{})
	cfg.NAS = NASConfig{PopulationSize: 4, Offspring: 4, Generations: 2, Seed: 11}
	cfg.MaxEpochs = 8
	cfg.Devices = 2
	cfg.Engine = nil // rigged curves must run to completion
	cfg.Store = store
	cfg.Beam = "medium"
	cfg.Obs = observer
	cfg.Faults = &FaultPlan{Seed: 3, Crashes: []DeviceCrash{{Device: 1, Generation: 1, AfterTasks: 1}}}
	cfg.Retry.MaxAttempts = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 8 {
		t.Fatalf("evaluated %d models", len(res.Models))
	}
	if res.Totals.DeadDevices != 1 {
		t.Fatalf("dead devices %d, want 1", res.Totals.DeadDevices)
	}

	// Drain the engine: every event the run emitted has been evaluated
	// and the final alert state is on disk.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Divergence fired and resolved live, during the run, on the SSE
	// stream (the capacity alert may land after run_end, so only the
	// divergence lifecycle is asserted here).
	var live []Event
	select {
	case r := <-liveDone:
		if r.err != nil {
			t.Fatal(r.err)
		}
		live = r.events
	case <-time.After(60 * time.Second):
		t.Fatal("live client never saw run_end")
	}
	fired, resolved := 0, 0
	for _, e := range live {
		switch e.Type {
		case "alert":
			fired++
		case "alert_resolved":
			resolved++
		}
	}
	if fired == 0 || resolved == 0 {
		t.Fatalf("SSE stream carried %d alert and %d alert_resolved events, want both > 0", fired, resolved)
	}

	// The run ended with the device pool below MinCapacity: aggregate
	// status is critical and /healthz says so with a 503.
	if eng.Status() != health.StatusCritical {
		t.Fatalf("status = %v, want critical", eng.Status())
	}
	if eng.CriticalActive() == 0 {
		t.Fatal("no active critical alerts")
	}
	code, rep = getHealthz(t, ts.URL)
	if code != 503 || rep.Status != "critical" {
		t.Fatalf("post-run /healthz = %d %q", code, rep.Status)
	}

	// /api/alerts: capacity active, divergence resolved.
	var alertsBody struct {
		Status   string  `json:"status"`
		Active   []Alert `json:"active"`
		Resolved []Alert `json:"resolved"`
	}
	getJSON(t, ts.URL+"/api/alerts", &alertsBody)
	if !hasAlert(alertsBody.Active, "devices/capacity") {
		t.Fatalf("active alerts %v missing devices/capacity", alertIDs(alertsBody.Active))
	}
	if !hasPrefix(alertsBody.Resolved, "divergence/") {
		t.Fatalf("resolved alerts %v missing a divergence alert", alertIDs(alertsBody.Resolved))
	}

	// The crash-safe alerts.jsonl folds to the same story: every model
	// diverged and recovered (dedup kept one alert per model, Count
	// counting the repeated checks), and the capacity alert is still
	// active and critical.
	onDisk, err := ReadAlerts(filepath.Join(dir, AlertsFile))
	if err != nil {
		t.Fatal(err)
	}
	divergences := 0
	for _, a := range onDisk {
		if strings.HasPrefix(a.ID, "divergence/") {
			divergences++
			if !a.Resolved {
				t.Fatalf("divergence alert %s not resolved: %+v", a.ID, a)
			}
			if a.Count < 2 {
				t.Fatalf("divergence alert %s Count = %d, want ≥ 2 (dedup across checks)", a.ID, a.Count)
			}
		}
		if a.ID == "devices/capacity" {
			if a.Resolved || a.Severity != health.SevCritical {
				t.Fatalf("capacity alert = %+v, want active critical", a)
			}
		}
	}
	if divergences != 8 {
		t.Fatalf("alerts.jsonl holds %d divergence alerts, want one per model (8)", divergences)
	}
	if !hasAlert(onDisk, "devices/capacity") {
		t.Fatalf("alerts.jsonl %v missing devices/capacity", alertIDs(onDisk))
	}
}

func getHealthz(t *testing.T, base string) (int, HealthReport) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, rep
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%s status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

func hasAlert(alerts []Alert, id string) bool {
	for _, a := range alerts {
		if a.ID == id {
			return true
		}
	}
	return false
}

func hasPrefix(alerts []Alert, prefix string) bool {
	for _, a := range alerts {
		if strings.HasPrefix(a.ID, prefix) {
			return true
		}
	}
	return false
}

func alertIDs(alerts []Alert) []string {
	ids := make([]string, len(alerts))
	for i, a := range alerts {
		ids[i] = fmt.Sprintf("%s(%s)", a.ID, a.Severity)
	}
	return ids
}
