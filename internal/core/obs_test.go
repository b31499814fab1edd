package core

import (
	"path/filepath"
	"testing"

	"a4nn/internal/obs"
)

// journaled gives cfg an observer whose journal appends to a fresh
// directory, which it returns.
func journaled(t *testing.T, cfg *Config) string {
	t.Helper()
	dir := t.TempDir()
	cfg.Obs = obs.NewObserver()
	if err := cfg.Obs.Journal().OpenFile(filepath.Join(dir, obs.EventsFile)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cfg.Obs.Journal().Close() })
	return dir
}

// checkTelemetryAgrees folds the run's journal and requires the
// per-generation sums to equal the workflow's own accounting. Wall,
// idle and busy are compared exactly: the pool and the fold both sum
// them in generation order, and the pool adds the engine overhead to
// the wall clock last.
func checkTelemetryAgrees(t *testing.T, dir string, cfg Config, res *Result) *obs.Telemetry {
	t.Helper()
	if err := cfg.Obs.FlushTo(dir); err != nil {
		t.Fatal(err)
	}
	tel, err := obs.LoadTelemetry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tel.Generations) != cfg.NAS.Generations {
		t.Fatalf("telemetry covers %d generations, want %d", len(tel.Generations), cfg.NAS.Generations)
	}
	var sum obs.GenTelemetry
	for _, g := range tel.Generations {
		sum.Tasks += g.Tasks
		sum.WallSeconds += g.WallSeconds
		sum.IdleSeconds += g.IdleSeconds
		sum.BusySeconds += g.BusySeconds
		sum.Retries += g.Retries
		sum.Faults += g.Faults
		sum.EpochsTrained += g.EpochsTrained
		sum.EpochsSaved += g.EpochsSaved
		sum.Terminated += g.Terminated
	}
	budget := len(res.Models) * cfg.MaxEpochs
	if sum.EpochsTrained != res.TotalEpochs || sum.Terminated != res.TerminatedEarly || sum.EpochsSaved != budget-res.TotalEpochs {
		t.Fatalf("telemetry epochs=%d terminated=%d saved=%d, want %d, %d and %d",
			sum.EpochsTrained, sum.Terminated, sum.EpochsSaved, res.TotalEpochs, res.TerminatedEarly, budget-res.TotalEpochs)
	}
	if tel.EpochsTrained != sum.EpochsTrained || tel.EpochsSaved != sum.EpochsSaved || tel.Terminated != sum.Terminated {
		t.Fatalf("run-level sums %+v disagree with the generations' %+v", tel, sum)
	}
	tot := res.Totals
	if sum.Tasks != tot.Tasks || sum.WallSeconds+tot.OverheadSeconds != tot.WallSeconds ||
		sum.IdleSeconds != tot.IdleSeconds || sum.BusySeconds != tot.BusySeconds ||
		sum.Retries != tot.Retries || sum.Faults != tot.Faults {
		t.Fatalf("telemetry sums %+v disagree with the pool's totals %+v", sum, tot)
	}
	return tel
}

// TestWorkflowObservability runs a full instrumented search and checks
// that the metrics, spans, and journal-folded telemetry agree with the
// workflow's own accounting.
func TestWorkflowObservability(t *testing.T) {
	cfg := testConfig()
	dir := journaled(t, &cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	snap := cfg.Obs.Registry().Snapshot()
	wantModels := uint64(len(res.Models))
	if got := snap.Counters["a4nn_train_models_total"]; got != wantModels {
		t.Fatalf("models counter %d, want %d", got, wantModels)
	}
	if got := snap.Counters["a4nn_train_epochs_total"]; got != uint64(res.TotalEpochs) {
		t.Fatalf("epochs counter %d, want %d", got, res.TotalEpochs)
	}
	if got := snap.Counters["a4nn_predictor_terminated_total"]; got != uint64(res.TerminatedEarly) {
		t.Fatalf("terminated counter %d, want %d", got, res.TerminatedEarly)
	}
	if got := snap.Counters["a4nn_sched_tasks_total"]; got != wantModels {
		t.Fatalf("sched tasks counter %d, want %d", got, wantModels)
	}
	if got := snap.Counters["a4nn_sched_generations_total"]; got != uint64(cfg.NAS.Generations) {
		t.Fatalf("generations counter %d, want %d", got, cfg.NAS.Generations)
	}
	if snap.Counters["a4nn_predict_predictions_total"] == 0 {
		t.Fatal("prediction engine recorded no predictions")
	}
	if hs := snap.Histograms["a4nn_sched_task_sim_seconds"]; hs.Count != wantModels {
		t.Fatalf("task latency histogram count %d, want %d", hs.Count, wantModels)
	}
	if hs := snap.Histograms["a4nn_predictor_stop_epoch"]; hs.Count != uint64(res.TerminatedEarly) {
		t.Fatalf("stop-epoch histogram count %d, want %d", hs.Count, res.TerminatedEarly)
	}
	if _, ok := snap.Gauges[`a4nn_sched_device_busy_sim_seconds{device="0"}`]; !ok {
		t.Fatalf("missing per-device busy gauge; gauges %v", snap.Gauges)
	}

	// Span accounting: one generation span per generation, one task span
	// per model, one epoch span per trained epoch.
	spans, dropped := cfg.Obs.Tracer().Snapshot()
	if dropped != 0 {
		t.Fatalf("%d spans dropped in a small run", dropped)
	}
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
	}
	if counts[obs.SpanGeneration] != cfg.NAS.Generations {
		t.Fatalf("%d generation spans, want %d", counts[obs.SpanGeneration], cfg.NAS.Generations)
	}
	if counts[obs.SpanTask] != len(res.Models) {
		t.Fatalf("%d task spans, want %d", counts[obs.SpanTask], len(res.Models))
	}
	if counts[obs.SpanEpoch] != res.TotalEpochs {
		t.Fatalf("%d epoch spans, want %d", counts[obs.SpanEpoch], res.TotalEpochs)
	}
	// Every task span is a child of a generation span, every epoch span
	// a child of a task span.
	byID := map[uint64]obs.SpanRecord{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		switch s.Name {
		case obs.SpanTask:
			if p, ok := byID[s.Parent]; !ok || p.Name != obs.SpanGeneration {
				t.Fatalf("task span %d has parent %+v", s.ID, p)
			}
		case obs.SpanEpoch:
			if p, ok := byID[s.Parent]; !ok || p.Name != obs.SpanTask {
				t.Fatalf("epoch span %d has parent %+v", s.ID, p)
			}
		}
	}

	// The journal folds back into the run's own accounting.
	tel := checkTelemetryAgrees(t, dir, cfg, res)
	for _, g := range tel.Generations {
		if g.Utilisation <= 0 || g.Utilisation > 1 {
			t.Fatalf("generation %d utilisation %v", g.Generation, g.Utilisation)
		}
		if g.WallSeconds <= 0 || g.BusySeconds <= 0 {
			t.Fatalf("generation %d accounting %+v", g.Generation, g)
		}
	}
	if tel.Metrics.Counters["a4nn_train_epochs_total"] != uint64(res.TotalEpochs) {
		t.Fatalf("flushed metrics %+v", tel.Metrics.Counters)
	}
}

// TestWorkflowWithoutObserver pins the disabled path: a nil Config.Obs
// must behave exactly like the uninstrumented workflow.
func TestWorkflowWithoutObserver(t *testing.T) {
	cfg := testConfig()
	cfg.Obs = nil
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) == 0 {
		t.Fatal("no models evaluated")
	}
}
