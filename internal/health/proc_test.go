package health

import (
	"testing"
	"time"

	"a4nn/internal/obs"
)

// grabRuntimeMon reaches the runtime row's readings.
func grabRuntimeMon(t *testing.T, e *Engine) *runtimeMon {
	t.Helper()
	return &e.runtime
}

func TestProcSelfSample(t *testing.T) {
	rss, fds, ok := procSelfSample()
	if !ok {
		t.Skip("no readable /proc/self on this platform")
	}
	if rss == 0 {
		t.Fatal("procSelfSample reported zero RSS for a live process")
	}
	// The test binary holds at least stdin/stdout/stderr.
	if fds < 3 {
		t.Fatalf("procSelfSample counted %d fds, want >= 3", fds)
	}
}

func TestRSSAndFDThresholds(t *testing.T) {
	cfg := testConfig()
	cfg.SampleInterval = time.Nanosecond
	cfg.RSSWarnMB = 10
	cfg.RSSCritMB = 20
	cfg.FDWarn = 100
	cfg.FDCrit = 200
	e, _ := testEngine(t, cfg)
	stepClock(e, time.Second) // every check takes a fresh sample
	mon := grabRuntimeMon(t, e)

	// Warn-level readings.
	mon.procRead = func() (uint64, int, bool) { return 15 << 20, 150, true }
	e.Check()
	ids := activeIDs(e)
	if a, ok := ids["runtime/rss"]; !ok || a.Severity != SevWarning {
		t.Fatalf("RSS warn did not fire: %+v", e.ActiveAlerts())
	}
	if a, ok := ids["runtime/fds"]; !ok || a.Severity != SevWarning {
		t.Fatalf("fd warn did not fire: %+v", e.ActiveAlerts())
	}

	// Crossing the critical thresholds escalates.
	mon.procRead = func() (uint64, int, bool) { return 25 << 20, 250, true }
	e.Check()
	ids = activeIDs(e)
	if a := ids["runtime/rss"]; a.Severity != SevCritical {
		t.Fatalf("RSS critical did not escalate: %+v", a)
	}
	if a := ids["runtime/fds"]; a.Severity != SevCritical {
		t.Fatalf("fd critical did not escalate: %+v", a)
	}

	// The gauges carry the readings.
	if got := mon.gRSS.Value(); got != float64(25<<20) {
		t.Fatalf("a4nn_health_rss_bytes = %v", got)
	}
	if got := mon.gFDs.Value(); got != 250 {
		t.Fatalf("a4nn_health_fds = %v", got)
	}
}

func TestRSSFDSilentWithoutProcfs(t *testing.T) {
	cfg := testConfig()
	cfg.SampleInterval = time.Nanosecond
	cfg.RSSWarnMB = 1
	cfg.RSSCritMB = 2
	cfg.FDWarn = 1
	cfg.FDCrit = 2
	e, _ := testEngine(t, cfg)
	mon := grabRuntimeMon(t, e)
	mon.procRead = func() (uint64, int, bool) { return 0, 0, false }
	e.Check()
	ids := activeIDs(e)
	if _, ok := ids["runtime/rss"]; ok {
		t.Fatal("RSS check fired without a procfs reading")
	}
	if _, ok := ids["runtime/fds"]; ok {
		t.Fatal("fd check fired without a procfs reading")
	}
}

func TestRuntimeSampleCarriesRSSAndFDs(t *testing.T) {
	cfg := testConfig()
	cfg.SampleInterval = time.Nanosecond
	cfg.EmitRuntimeSamples = true
	e, o := testEngine(t, cfg)
	mon := grabRuntimeMon(t, e)
	mon.procRead = func() (uint64, int, bool) { return 33 << 20, 44, true }
	sub := o.Journal().Subscribe()
	defer sub.Close()
	e.Check()
	batch, _ := sub.Read(nil)
	if len(batch) == 0 {
		t.Fatal("no runtime_sample emitted")
	}
	sample := batch[0]
	if sample.RSSBytes != 33<<20 || sample.FDs != 44 {
		t.Fatalf("sample rss=%d fds=%d, want %d/%d", sample.RSSBytes, sample.FDs, 33<<20, 44)
	}

	// A follower adopts the OS-level readings along with the Go ones.
	fcfg := testConfig()
	fcfg.RSSWarnMB = 16
	fcfg.RSSCritMB = 64
	fcfg.FDWarn = 10
	fcfg.FDCrit = 100
	follower, _ := testEngine(t, fcfg)
	fmon := grabRuntimeMon(t, follower)
	follower.Observe(obs.Event{Type: obs.EventRuntimeSample,
		Goroutines: 10, HeapBytes: 1 << 20, RSSBytes: 33 << 20, FDs: 44})
	if !fmon.procOK || fmon.rssBytes != 33<<20 || fmon.fds != 44 {
		t.Fatalf("follower did not adopt OS readings: %+v", fmon)
	}
	ids := activeIDs(follower)
	if a, ok := ids["runtime/rss"]; !ok || a.Severity != SevWarning {
		t.Fatalf("adopted RSS did not drive thresholds: %+v", follower.ActiveAlerts())
	}
	if a, ok := ids["runtime/fds"]; !ok || a.Severity != SevWarning {
		t.Fatalf("adopted fd count did not drive thresholds: %+v", follower.ActiveAlerts())
	}
}

func TestParseConfigRSSFDKeys(t *testing.T) {
	cfg, err := ParseConfig("rss-warn-mb=100;rss-crit-mb=200,fd-warn=10;fd-crit=20")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RSSWarnMB != 100 || cfg.RSSCritMB != 200 || cfg.FDWarn != 10 || cfg.FDCrit != 20 {
		t.Fatalf("parsed %+v", cfg)
	}
	if _, err := ParseConfig("rss-warn-mb=300;rss-crit-mb=200"); err == nil {
		t.Fatal("rss-crit-mb below rss-warn-mb accepted")
	}
	if _, err := ParseConfig("fd-warn=20;fd-crit=20"); err == nil {
		t.Fatal("fd-crit equal to fd-warn accepted")
	}
}
