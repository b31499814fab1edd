package health

import (
	"math"
	"strings"
	"testing"
	"time"

	"a4nn/internal/obs"
)

// testConfig keeps windows small and the sampler quiet so unit tests
// drive every transition with a handful of events.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.DivergenceWindow = 2
	cfg.PlateauWindow = 3
	cfg.CalibrationWindow = 2
	cfg.ResolveAfter = 2
	cfg.SampleInterval = time.Hour // periodic sampler stays out of the way
	return cfg
}

func testEngine(t *testing.T, cfg Config) (*Engine, *obs.Observer) {
	t.Helper()
	o := obs.NewObserver()
	e, err := New(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	return e, o
}

// activeIDs snapshots the engine's active alert IDs.
func activeIDs(e *Engine) map[string]Alert {
	out := map[string]Alert{}
	for _, a := range e.ActiveAlerts() {
		out[a.ID] = a
	}
	return out
}

func TestDivergenceFireAndRecoverResolves(t *testing.T) {
	e, _ := testEngine(t, testConfig())
	epoch := func(loss, acc float64) obs.Event {
		return obs.Event{Type: obs.EventEpoch, Model: "m1", Loss: loss, ValAcc: acc}
	}
	// Rising loss for DivergenceWindow consecutive epochs fires. The
	// accuracies keep moving so the plateau monitor stays quiet.
	e.Observe(epoch(1.0, 50))
	e.Observe(epoch(1.2, 51))
	if len(e.ActiveAlerts()) != 0 {
		t.Fatalf("fired after a 1-epoch rise: %+v", e.ActiveAlerts())
	}
	e.Observe(epoch(1.4, 52))
	a, ok := activeIDs(e)["divergence/m1"]
	if !ok {
		t.Fatalf("divergence did not fire; active = %+v", e.ActiveAlerts())
	}
	if a.Severity != SevCritical {
		t.Fatalf("severity = %s, want critical", a.Severity)
	}
	if e.Status() != StatusCritical {
		t.Fatalf("status = %v, want critical", e.Status())
	}
	// Dedup: another diverging epoch bumps Count, not a second alert.
	e.Observe(epoch(1.6, 53))
	if a := activeIDs(e)["divergence/m1"]; a.Count != 2 {
		t.Fatalf("Count = %d, want 2", a.Count)
	}
	// Recovery: falling loss resets the streak; after ResolveAfter
	// consecutive clean checks the alert resolves.
	e.Observe(epoch(1.1, 52))
	e.Observe(epoch(0.9, 51))
	if len(e.ActiveAlerts()) != 0 {
		t.Fatalf("alert survived recovery: %+v", e.ActiveAlerts())
	}
	if e.Status() != StatusOK {
		t.Fatalf("status = %v, want ok", e.Status())
	}
	res := e.ResolvedAlerts()
	if len(res) != 1 || res[0].ID != "divergence/m1" || !res[0].Resolved {
		t.Fatalf("resolved = %+v", res)
	}
}

func TestDivergenceNaN(t *testing.T) {
	e, _ := testEngine(t, testConfig())
	e.Observe(obs.Event{Type: obs.EventEpoch, Model: "m2", Loss: math.NaN(), ValAcc: 10})
	a, ok := activeIDs(e)["divergence/m2"]
	if !ok || a.Severity != SevCritical || !strings.Contains(a.Message, "NaN") {
		t.Fatalf("NaN alert = %+v (ok=%v)", a, ok)
	}
}

func TestDivergenceAccuracyCollapse(t *testing.T) {
	cfg := testConfig()
	cfg.DivergenceDrop = 15
	e, _ := testEngine(t, cfg)
	// Surrogate-style epochs: no loss signal, accuracy only.
	e.Observe(obs.Event{Type: obs.EventEpoch, Model: "m3", ValAcc: 80})
	e.Observe(obs.Event{Type: obs.EventEpoch, Model: "m3", ValAcc: 60})
	if _, ok := activeIDs(e)["divergence/m3"]; !ok {
		t.Fatalf("accuracy collapse not detected; active = %+v", e.ActiveAlerts())
	}
}

func TestPlateauIsInfoOnly(t *testing.T) {
	e, _ := testEngine(t, testConfig())
	for i := 0; i < 3; i++ {
		e.Observe(obs.Event{Type: obs.EventEpoch, Model: "m4", ValAcc: 70.01})
	}
	a, ok := activeIDs(e)["plateau/m4"]
	if !ok || a.Severity != SevInfo {
		t.Fatalf("plateau alert = %+v (ok=%v)", a, ok)
	}
	if e.Status() != StatusOK {
		t.Fatalf("status = %v; info alerts must not degrade", e.Status())
	}
	// model_done clears the curve and the alert resolves.
	e.Observe(obs.Event{Type: obs.EventModelDone, Model: "m4"})
	e.Check()
	if len(e.ActiveAlerts()) != 0 {
		t.Fatalf("plateau alert survived model_done: %+v", e.ActiveAlerts())
	}
}

func TestCalibrationWarning(t *testing.T) {
	e, _ := testEngine(t, testConfig()) // window 2, tolerance 5
	e.Observe(obs.Event{Type: obs.EventPredictTerminate, Model: "a", Predicted: 90, Actual: 80})
	if len(e.ActiveAlerts()) != 0 {
		t.Fatal("fired before the window filled")
	}
	e.Observe(obs.Event{Type: obs.EventPredictTerminate, Model: "b", Predicted: 70, Actual: 78})
	a, ok := activeIDs(e)["calibration"]
	if !ok || a.Severity != SevWarning {
		t.Fatalf("calibration alert = %+v (ok=%v)", a, ok)
	}
	if a.Value != 9 { // mean(10, 8)
		t.Fatalf("rolling mean = %v, want 9", a.Value)
	}
}

func TestDevicePoolCapacityAndStragglers(t *testing.T) {
	cfg := testConfig()
	cfg.StragglerRate = 0.4
	e, _ := testEngine(t, cfg)
	e.Observe(obs.Event{Type: obs.EventRunStart, Devices: 4})
	if len(e.ActiveAlerts()) != 0 {
		t.Fatal("healthy pool raised alerts")
	}
	// One device lost: 3/4 alive is a warning.
	e.Observe(obs.Event{Type: obs.EventGenerationStart, Gen: 1, Devices: 3})
	a := activeIDs(e)["devices/capacity"]
	if a.Severity != SevWarning {
		t.Fatalf("capacity 0.75 severity = %s, want warning", a.Severity)
	}
	// Below MinCapacity (0.5): critical.
	e.Observe(obs.Event{Type: obs.EventGenerationStart, Gen: 2, Devices: 1})
	a = activeIDs(e)["devices/capacity"]
	if a.Severity != SevCritical {
		t.Fatalf("capacity 0.25 severity = %s, want critical", a.Severity)
	}
	if e.Status() != StatusCritical {
		t.Fatalf("status = %v, want critical", e.Status())
	}
	// Stragglers: 2 events over 4 device-generations = 0.5 > 0.4.
	e.Observe(obs.Event{Type: obs.EventStraggler, Device: 0})
	e.Observe(obs.Event{Type: obs.EventStraggler, Device: 1})
	if a, ok := activeIDs(e)["devices/stragglers"]; !ok || a.Severity != SevWarning {
		t.Fatalf("straggler alert = %+v (ok=%v)", a, ok)
	}
}

func TestQueueSaturation(t *testing.T) {
	e, o := testEngine(t, testConfig()) // factor 3, min wait 1s
	hist := o.Registry().Histogram("a4nn_sched_queue_wait_sim_seconds", obs.SecondsBuckets)
	// Warmup generation: mean wait 1s becomes the baseline.
	hist.Observe(1)
	hist.Observe(1)
	e.Observe(obs.Event{Type: obs.EventGenerationEnd, Gen: 1})
	if len(e.ActiveAlerts()) != 0 {
		t.Fatal("warmup generation raised alerts")
	}
	// Healthy generation: 2s mean is under 3× baseline.
	hist.Observe(2)
	hist.Observe(2)
	e.Observe(obs.Event{Type: obs.EventGenerationEnd, Gen: 2})
	if len(e.ActiveAlerts()) != 0 {
		t.Fatalf("2s mean vs 1s baseline alerted: %+v", e.ActiveAlerts())
	}
	// Saturated generation: 10s mean breaches 3× the baseline.
	hist.Observe(10)
	hist.Observe(10)
	e.Observe(obs.Event{Type: obs.EventGenerationEnd, Gen: 3})
	a, ok := activeIDs(e)["queue"]
	if !ok || a.Severity != SevWarning {
		t.Fatalf("queue alert = %+v (ok=%v)", a, ok)
	}
}

func TestBackpressureCounters(t *testing.T) {
	e, o := testEngine(t, testConfig())
	o.Registry().Counter("a4nn_events_dropped_total").Inc()
	e.Check()
	if a, ok := activeIDs(e)["backpressure/drops"]; !ok || a.Severity != SevWarning {
		t.Fatalf("drop alert = %+v (ok=%v)", a, ok)
	}
	o.Registry().Counter("a4nn_events_file_errors_total").Inc()
	e.Check()
	if a, ok := activeIDs(e)["backpressure/file"]; !ok || a.Severity != SevCritical {
		t.Fatalf("file-error alert = %+v (ok=%v)", a, ok)
	}
	// Counters going quiet resolves both after ResolveAfter checks.
	e.Check()
	e.Check()
	e.Check()
	if ids := activeIDs(e); len(ids) != 0 {
		t.Fatalf("backpressure alerts survived quiet counters: %+v", ids)
	}
}

func TestEngineStartConsumesBroker(t *testing.T) {
	e, o := testEngine(t, testConfig())
	e.Start()
	o.Journal().Emit(obs.Event{Type: obs.EventEpoch, Model: "mX", Loss: math.Inf(1), ValAcc: 5})
	deadline := time.Now().Add(5 * time.Second)
	for e.Status() != StatusCritical {
		if time.Now().After(deadline) {
			t.Fatal("broker-fed engine never saw the Inf epoch")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The alert re-emitted through the same journal without feeding back.
	checksBefore := e.Report().Checks
	time.Sleep(20 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Close runs exactly one final check; a feedback loop would have
	// kept the check counter climbing from the alert's own emission.
	if got := e.Report().Checks; got > checksBefore+2 {
		t.Fatalf("checks climbed from %d to %d after quiescence — alert feedback loop", checksBefore, got)
	}
}

func TestEngineNilSafety(t *testing.T) {
	var e *Engine
	e.Observe(obs.Event{Type: obs.EventEpoch})
	e.Check()
	e.Start()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Status() != StatusOK {
		t.Fatal("nil engine not ok")
	}
	if rep := e.Report(); rep.Status != "ok" || len(rep.Monitors) != 0 {
		t.Fatalf("nil report = %+v", rep)
	}
	if e.ActiveAlerts() != nil || e.ResolvedAlerts() != nil || e.CriticalActive() != 0 {
		t.Fatal("nil engine leaked alerts")
	}
}

func TestNewRequiresObserver(t *testing.T) {
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Fatal("New accepted a nil observer")
	}
}

func TestReportMonitors(t *testing.T) {
	e, _ := testEngine(t, testConfig())
	e.Observe(obs.Event{Type: obs.EventRunStart, Devices: 4})
	e.Observe(obs.Event{Type: obs.EventGenerationStart, Gen: 1, Devices: 3})
	rep := e.Report()
	if rep.Status != "degraded" || rep.Active != 1 || rep.Critical != 0 {
		t.Fatalf("report = %+v", rep)
	}
	byName := map[string]MonitorStatus{}
	for _, m := range rep.Monitors {
		byName[m.Name] = m
	}
	if len(byName) != 8 {
		t.Fatalf("monitors = %d, want 8 (%+v)", len(byName), rep.Monitors)
	}
	if m := byName["devices"]; m.Status != "degraded" || m.Active != 1 || m.Detail == "" {
		t.Fatalf("devices row = %+v", m)
	}
	if m := byName["divergence"]; m.Status != "ok" || m.Active != 0 {
		t.Fatalf("divergence row = %+v", m)
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig("divergence-window=5; min-capacity=0.6, gc-pause-ms=10;sample-ms=250")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DivergenceWindow != 5 || cfg.MinCapacity != 0.6 ||
		cfg.GCPauseP99 != 10*time.Millisecond || cfg.SampleInterval != 250*time.Millisecond {
		t.Fatalf("cfg = %+v", cfg)
	}
	// Unset keys keep defaults.
	if cfg.ResolveAfter != DefaultConfig().ResolveAfter {
		t.Fatalf("ResolveAfter = %d, want default", cfg.ResolveAfter)
	}
	for _, bad := range []string{"divergence-window", "divergence-window=0", "nope=1", "min-capacity=2", "plateau-eps=x"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("ParseConfig(%q) accepted", bad)
		}
	}
	if _, err := ParseConfig(""); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
}

// TestKnobTables pins the knob tables: keys are unique, the defaults are
// the ones the engine has always run with, a spec naming every key at
// its default parses to DefaultConfig, limits keep a negative (disabled)
// value through the fill, and the keys of deleted knobs are refused.
func TestKnobTables(t *testing.T) {
	want := Config{
		DivergenceWindow: 3, DivergenceDrop: 20, PlateauWindow: 8, CalibrationWindow: 8,
		MinCapacity: 0.5, StragglerRate: 0.3, SampleInterval: 5 * time.Second,
		MaxGoroutines: 2000, HeapGrowthFactor: 4, GCPauseP99: 50 * time.Millisecond,
		RSSWarnMB: 4096, RSSCritMB: 8192, FDWarn: 512, FDCrit: 960, ResolveAfter: 3,
		AlertCommandInterval: 10 * time.Second, DiskWarnFrac: 0.10, DiskCritFrac: 0.03,
	}
	if got := DefaultConfig(); got != want {
		t.Fatalf("DefaultConfig() = %+v\nwant %+v", got, want)
	}
	var spec []string
	seen := map[string]bool{}
	for _, k := range configKnobs {
		if seen[k.key] {
			t.Fatalf("config key %q twice", k.key)
		}
		seen[k.key] = true
		spec = append(spec, k.key+"="+k.def)
	}
	if got, err := ParseConfig(strings.Join(spec, ";")); err != nil || got != want {
		t.Fatalf("every key at its default = %+v, %v", got, err)
	}
	c := Config{MaxGoroutines: -1, RSSWarnMB: -1, FDWarn: -1, DivergenceWindow: -4}.withDefaults()
	if c.MaxGoroutines != -1 || c.RSSWarnMB != -1 || c.FDWarn != -1 || c.DivergenceWindow != 3 {
		t.Fatalf("negative values after the fill: %+v", c)
	}
	for _, key := range []string{"plateau-eps", "calibration-tol", "queue-factor", "queue-min-wait"} {
		if _, err := ParseConfig(key + "=1"); err == nil {
			t.Errorf("deleted key %q accepted", key)
		}
	}

	seen = map[string]bool{}
	for _, k := range sloKnobs {
		if seen[k.key] {
			t.Fatalf("slo key %q twice", k.key)
		}
		seen[k.key] = true
		if k.def != "" {
			if err := k.set(&SLO{}, k.def); err != nil {
				t.Fatalf("slo default: %v", err)
			}
		}
	}
	if got := (SLO{EventDropRate: 0.01}).withDefaults(); got != (SLO{EventDropRate: 0.01,
		Objective: 0.99, FastWindow: time.Minute, SlowWindow: 10 * time.Minute, FastBurn: 14, SlowBurn: 6}) {
		t.Fatalf("SLO defaults = %+v", got)
	}
}
