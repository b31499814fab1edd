package obs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"a4nn/internal/chaos"
)

// emitRunSpans records the span shapes the instrumented workflow emits:
// one generation span enclosing two task spans.
func emitRunSpans(o *Observer) {
	ctx := WithTracer(context.Background(), o.Tracer())
	gctx, gen := StartSpan(ctx, SpanGeneration)
	for i := range 2 {
		_, task := StartSpan(gctx, SpanTask)
		task.SetInt("task", i)
		task.End()
	}
	gen.End()
}

// journalRun emits the journal of a two-generation search that was
// killed inside generation 1 and resumed: the relaunch repeats run_start
// and generation 0's generation_end, replays m0 and m1 (no model_done),
// resumes m2 from its checkpoint and retrains m3, whose first line was
// written before the kill.
func journalRun(j *Journal) {
	for _, e := range []Event{
		{Type: EventRunStart, Epochs: 25},
		{Type: EventModelDone, Gen: 0, Model: "m0", Epochs: 20, Terminated: true},
		{Type: EventModelDone, Gen: 0, Model: "m1", Epochs: 25},
		{Type: EventGenerationEnd, Gen: 0, Tasks: 2, WallSeconds: 300, IdleSeconds: 60,
			DeviceBusy: []float64{240, 300}, MeanQueueWaitSeconds: 5, Retries: 1, Faults: 2},
		{Type: EventModelDone, Gen: 1, Model: "m3", Epochs: 7, Terminated: true},
		// The relaunch.
		{Type: EventRunStart, Epochs: 25},
		{Type: EventGenerationEnd, Gen: 0, Tasks: 2, WallSeconds: 300, IdleSeconds: 60,
			DeviceBusy: []float64{240, 300}, MeanQueueWaitSeconds: 5, Retries: 1, Faults: 2},
		{Type: EventModelResume, Gen: 1, Model: "m2", Epoch: 4},
		{Type: EventModelDone, Gen: 1, Model: "m2", Epochs: 10, Terminated: true},
		{Type: EventModelDone, Gen: 1, Model: "m3", Epochs: 25},
		{Type: EventGenerationEnd, Gen: 1, Tasks: 2, WallSeconds: 200, DeviceBusy: []float64{200, 150},
			IdleSeconds: 50, MeanQueueWaitSeconds: 12.5},
	} {
		j.Emit(e)
	}
}

func TestFlushLoadTelemetryRoundTrip(t *testing.T) {
	o := NewObserver()
	dir := t.TempDir()
	if err := o.Journal().OpenFile(filepath.Join(dir, EventsFile)); err != nil {
		t.Fatal(err)
	}
	o.Registry().Counter("a4nn_train_epochs_total").Add(62)
	emitRunSpans(o)
	journalRun(o.Journal())
	if err := o.FlushTo(dir); err != nil {
		t.Fatal(err)
	}
	if err := o.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	// The flush adds the metrics snapshot and nothing else: no span
	// file, no temp file of the atomic write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{EventsFile, MetricsFile}) {
		t.Fatalf("flush dir contents %v, want exactly [%s %s]", names, EventsFile, MetricsFile)
	}

	tel, err := LoadTelemetry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Spans != 11 || len(tel.Generations) != 2 {
		t.Fatalf("telemetry folded %d events into %d generations, want 11 and 2", tel.Spans, len(tel.Generations))
	}
	g := tel.Generations[0]
	if g.Tasks != 2 || g.WallSeconds != 300 || g.BusySeconds != 540 || g.Retries != 1 || g.Faults != 2 {
		t.Fatalf("generation 0 aggregate %+v", g)
	}
	if want := 540.0 / 600.0; math.Abs(g.Utilisation-want) > 1e-12 {
		t.Fatalf("utilisation %v, want %v", g.Utilisation, want)
	}
	if g.MeanQueueWaitSeconds != 5 {
		t.Fatalf("mean queue wait %v, want 5", g.MeanQueueWaitSeconds)
	}
	// Each model counts once, by its last model_done: m3's retrained line
	// replaces the one written before the kill.
	if g.EpochsTrained != 45 || g.EpochsSaved != 5 || g.Terminated != 1 {
		t.Fatalf("generation 0 savings %+v", g)
	}
	if g := tel.Generations[1]; g.EpochsTrained != 35 || g.EpochsSaved != 15 || g.Terminated != 1 || g.MeanQueueWaitSeconds != 12.5 {
		t.Fatalf("generation 1 aggregate %+v", g)
	}
	if tel.EpochsTrained != 80 || tel.EpochsSaved != 20 || tel.Terminated != 2 {
		t.Fatalf("run-level sums %+v", tel)
	}
	if tel.Metrics.Counters["a4nn_train_epochs_total"] != 62 {
		t.Fatalf("metrics snapshot %+v", tel.Metrics.Counters)
	}
}

// TestLoadTelemetryNeedsJournal: a directory without an events.jsonl has
// no telemetry, even with a metrics snapshot in it.
func TestLoadTelemetryNeedsJournal(t *testing.T) {
	dir := t.TempDir()
	if err := NewObserver().FlushTo(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTelemetry(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("LoadTelemetry without a journal: err = %v, want not-exist", err)
	}
}

func TestAggregateEventsEmpty(t *testing.T) {
	tel := AggregateEvents(nil)
	if tel.Spans != 0 || len(tel.Generations) != 0 {
		t.Fatalf("empty aggregate %+v", tel)
	}
}

func TestObserverHandlerEndpoints(t *testing.T) {
	o := NewObserver()
	o.Registry().Counter("a4nn_tasks_total").Inc()
	emitRunSpans(o)
	mux := http.NewServeMux()
	mux.Handle("/metrics", o.Registry().MetricsHandler())
	mux.Handle("/metrics.json", o.Registry().JSONHandler())
	mux.Handle("/debug/spans", o.Tracer().SpansHandler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, "a4nn_tasks_total 1") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	body, ctype = get("/metrics.json")
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("/metrics.json content type %q", ctype)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["a4nn_tasks_total"] != 1 {
		t.Fatalf("/metrics.json counters %+v", snap.Counters)
	}

	body, _ = get("/debug/spans")
	var spans struct {
		Dropped uint64       `json:"dropped"`
		Spans   []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans.Spans) != 3 || spans.Dropped != 0 {
		t.Fatalf("/debug/spans returned %d spans, %d dropped", len(spans.Spans), spans.Dropped)
	}
}

func TestNilObserver(t *testing.T) {
	var o *Observer
	if o.Registry() != nil || o.Tracer() != nil {
		t.Fatal("nil observer must hand out nil components")
	}
	if err := o.FlushTo(t.TempDir()); err != nil {
		t.Fatalf("nil observer flush: %v", err)
	}
}

// TestFlushChaosPoints: an err= plan at either rename point of
// metrics.json returns the injected error. Before the rename the previous
// snapshot stays whole; after it the new one is committed.
func TestFlushChaosPoints(t *testing.T) {
	t.Cleanup(func() { chaos.Install(nil) })
	for _, c := range []struct {
		point string
		want  uint64
	}{
		{chaos.PointMetricsPreRename, 1},
		{chaos.PointMetricsPostRename, 2},
	} {
		dir := t.TempDir()
		o := NewObserver()
		runs := o.Registry().Counter("a4nn_test_flushes_total")
		runs.Inc()
		if err := o.FlushTo(dir); err != nil {
			t.Fatal(err)
		}
		runs.Inc()
		plan, err := chaos.Parse("err=" + c.point + "@1")
		if err != nil {
			t.Fatal(err)
		}
		chaos.Install(plan)
		err = o.FlushTo(dir)
		chaos.Install(nil)
		if !chaos.IsInjected(err) {
			t.Fatalf("%s: FlushTo = %v, want the injected error", c.point, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, MetricsFile))
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("%s: metrics.json after the injected error: %v", c.point, err)
		}
		if got := snap.Counters["a4nn_test_flushes_total"]; got != c.want {
			t.Fatalf("%s: metrics.json counter = %d, want %d", c.point, got, c.want)
		}
	}
}
