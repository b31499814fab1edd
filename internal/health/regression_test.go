package health

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"a4nn/internal/obs"
)

// fakeHistory is an in-memory QueryFunc: series name → (mean, count).
type fakeHistory map[string]struct {
	mean float64
	n    int
}

func (f fakeHistory) query(series string, _, _ int64) (float64, int) {
	s := f[series]
	return s.mean, s.n
}

func regressionEngine(t *testing.T, cfg RegressionConfig) *Engine {
	t.Helper()
	c := DefaultConfig()
	c.Regression = &cfg
	e, err := New(c, obs.NewObserver())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func regressionAlerts(e *Engine) []Alert {
	var out []Alert
	for _, a := range e.ActiveAlerts() {
		if strings.HasPrefix(a.ID, "regression/") {
			out = append(out, a)
		}
	}
	return out
}

func TestRegressionFiresAgainstDegradedBaseline(t *testing.T) {
	hist := fakeHistory{
		"a4nn_sched_queue_wait_sim_seconds_p99": {mean: 2.0, n: 20},
	}
	e := regressionEngine(t, RegressionConfig{
		// The baseline claims queue wait used to be 1s; the live run
		// sits at 2s — a 100% higher-worse regression.
		Baseline: Baseline{Series: map[string]BaselineSeries{
			"a4nn_sched_queue_wait_sim_seconds_p99": {Mean: 1.0},
		}},
		Query:        hist.query,
		Sustain:      3,
		EvalInterval: -1, // evaluate on every check
	})
	e.Check()
	e.Check()
	if got := regressionAlerts(e); len(got) != 0 {
		t.Fatalf("fired before the sustain streak: %+v", got)
	}
	e.Check()
	got := regressionAlerts(e)
	if len(got) != 1 {
		t.Fatalf("regression alerts = %+v", got)
	}
	a := got[0]
	if a.Severity != SevWarning {
		t.Fatalf("severity = %s", a.Severity)
	}
	if !strings.Contains(a.Message, "above baseline") {
		t.Fatalf("message = %q", a.Message)
	}
}

func TestRegressionSilentAgainstOwnBaseline(t *testing.T) {
	hist := fakeHistory{
		"a4nn_train_epoch_sim_seconds_p99": {mean: 3.0, n: 50},
		"a4nn_train_last_accuracy_percent": {mean: 85, n: 50},
	}
	// Baseline captured from the same history: zero deviation.
	base := BaselineFrom(hist.query,
		[]string{"a4nn_train_epoch_sim_seconds_p99", "a4nn_train_last_accuracy_percent"},
		0, 1)
	if base.Series["a4nn_train_last_accuracy_percent"].Direction != "lower-worse" {
		t.Fatalf("accuracy direction = %q", base.Series["a4nn_train_last_accuracy_percent"].Direction)
	}
	e := regressionEngine(t, RegressionConfig{
		Baseline: base, Query: hist.query, Sustain: 1, EvalInterval: -1,
	})
	for i := 0; i < 5; i++ {
		e.Check()
	}
	if got := regressionAlerts(e); len(got) != 0 {
		t.Fatalf("fired against its own baseline: %+v", got)
	}
}

func TestRegressionLowerWorseAndMinSamples(t *testing.T) {
	hist := fakeHistory{
		"a4nn_fleet_gflops": {mean: 10, n: 20},
		"a4nn_thin":         {mean: 100, n: 2}, // too few samples to judge
	}
	e := regressionEngine(t, RegressionConfig{
		Baseline: Baseline{Series: map[string]BaselineSeries{
			"a4nn_fleet_gflops": {Mean: 40, Direction: "lower-worse"},
			"a4nn_thin":         {Mean: 1},
		}},
		Query: hist.query, Sustain: 1, EvalInterval: -1,
	})
	e.Check()
	got := regressionAlerts(e)
	if len(got) != 1 {
		t.Fatalf("alerts = %+v", got)
	}
	if !strings.Contains(got[0].Message, "below baseline") {
		t.Fatalf("lower-worse message = %q", got[0].Message)
	}
}

func TestBaselineSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	b := Baseline{
		CreatedMS: 123,
		Series: map[string]BaselineSeries{
			"x_p99": {Mean: 1.5, Direction: "higher-worse", Tolerance: 0.5},
		},
	}
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.CreatedMS != 123 || got.Series["x_p99"] != b.Series["x_p99"] {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := LoadBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline loaded")
	}
}

// TestBaselineSaveFailureKeepsOldBaseline makes the replace fail before
// its rename (the temp name outgrows the file system's name limit, which
// unlike a read-only directory also stops root): the committed baseline
// must still load and no temp file may stay behind.
func TestBaselineSaveFailureKeepsOldBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, strings.Repeat("b", 250))
	old := Baseline{CreatedMS: 1, Series: map[string]BaselineSeries{"x_p99": {Mean: 1.5}}}
	if err := old.Save(filepath.Join(dir, "short.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "short.json"), path); err != nil {
		t.Fatal(err)
	}
	next := Baseline{CreatedMS: 2, Series: map[string]BaselineSeries{"y_p99": {Mean: 9}}}
	if err := next.Save(path); err == nil {
		t.Fatal("Save over an unwritable temp name reported success")
	}
	got, err := LoadBaseline(path)
	if err != nil || got.CreatedMS != 1 || got.Series["x_p99"].Mean != 1.5 {
		t.Fatalf("baseline after the failed save = %+v, %v; want the old one", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries after the failed save, want 1", len(entries))
	}
}

func TestRegressionEvalThrottle(t *testing.T) {
	calls := 0
	q := func(string, int64, int64) (float64, int) {
		calls++
		return 1, 10
	}
	now := time.Unix(1000, 0)
	cfg := RegressionConfig{
		Baseline:     Baseline{Series: map[string]BaselineSeries{"s": {Mean: 1}}},
		Query:        q,
		EvalInterval: 10 * time.Second,
		now:          func() time.Time { return now },
	}
	r := newRegression(cfg)
	r.check(nil)
	r.check(nil)
	r.check(nil)
	if calls != 1 {
		t.Fatalf("query ran %d times inside one eval interval", calls)
	}
	now = now.Add(11 * time.Second)
	r.check(nil)
	if calls != 2 {
		t.Fatalf("query ran %d times after the interval elapsed", calls)
	}
}
