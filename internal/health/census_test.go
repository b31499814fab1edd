package health

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"a4nn/internal/obs"
)

// designMonitors reads the monitor column of DESIGN.md §7.3's table.
func designMonitors(t *testing.T) []string {
	t.Helper()
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(design)
	start, end := strings.Index(sec, "### 7.3 "), strings.Index(sec, "### 7.4 ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §7.3")
	}
	var names []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|").FindAllStringSubmatch(sec[start:end], -1) {
		names = append(names, m[1])
	}
	return names
}

// rowNames lists the engine's rows as its Report does.
func rowNames(e *Engine) []string {
	var names []string
	for _, m := range e.Report().Monitors {
		names = append(names, m.Name)
	}
	return names
}

// TestMonitorCensus holds DESIGN.md §7.3's monitor table to the rows of
// a fully configured engine, name for name and in Report order, and
// requires a default engine to report the always-on rows: every one but
// disk, slo and regression, which only their configuration adds.
func TestMonitorCensus(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampleInterval = time.Hour
	cfg.DiskPath = t.TempDir()
	cfg.SLO = &SLO{EventDropRate: 0.01}
	cfg.Regression = &RegressionConfig{
		Baseline: Baseline{Series: map[string]BaselineSeries{"s": {Mean: 1}}},
		Query:    func(string, int64, int64) (float64, int) { return 0, 0 },
	}
	full, err := New(cfg, obs.NewObserver())
	if err != nil {
		t.Fatal(err)
	}
	want := designMonitors(t)
	if got := rowNames(full); !reflect.DeepEqual(got, want) {
		t.Fatalf("fully configured engine reports rows %v\nDESIGN.md §7.3 lists %v", got, want)
	}
	plain, _ := testEngine(t, testConfig())
	if got := rowNames(plain); !reflect.DeepEqual(got, want[:len(want)-3]) {
		t.Fatalf("default engine reports rows %v, want %v", got, want[:len(want)-3])
	}
}
