package health

import (
	"strings"
	"testing"
	"time"

	"a4nn/internal/obs"
)

func TestParseSLO(t *testing.T) {
	s, err := ParseSLO("queue_wait_p99=2s,job_turnaround=10m,event_drop_rate=0.01")
	if err != nil {
		t.Fatalf("ParseSLO: %v", err)
	}
	if s.QueueWaitP99 != 2 {
		t.Errorf("QueueWaitP99 = %v, want 2", s.QueueWaitP99)
	}
	if s.JobTurnaround != 10*time.Minute {
		t.Errorf("JobTurnaround = %v, want 10m", s.JobTurnaround)
	}
	if s.EventDropRate != 0.01 {
		t.Errorf("EventDropRate = %v, want 0.01", s.EventDropRate)
	}
	// Defaults fill in.
	if s.Objective != 0.99 || s.FastWindow != time.Minute || s.SlowWindow != 10*time.Minute ||
		s.FastBurn != 14 || s.SlowBurn != 6 {
		t.Errorf("defaults not applied: %+v", s)
	}

	// Tuning keys override.
	s, err = ParseSLO("queue_wait_p99=500ms;objective=0.95;fast_window=30s;slow_window=5m;fast_burn=10;slow_burn=3")
	if err != nil {
		t.Fatalf("ParseSLO tuned: %v", err)
	}
	if s.QueueWaitP99 != 0.5 || s.Objective != 0.95 || s.FastWindow != 30*time.Second ||
		s.SlowWindow != 5*time.Minute || s.FastBurn != 10 || s.SlowBurn != 3 {
		t.Errorf("tuned spec mis-parsed: %+v", s)
	}

	for _, bad := range []string{
		"",                    // no objective
		"objective=0.99",      // tuning only, still no objective
		"queue_wait_p99=junk", // bad duration
		"queue_wait_p99=-2s",  // non-positive duration
		"event_drop_rate=1.5", // not a fraction
		"bogus_key=1",         // unknown key
		"queue_wait_p99",      // not key=value
		"queue_wait_p99=2s,fast_window=10m,slow_window=1m", // windows inverted
		"queue_wait_p99=2s,fast_burn=3,slow_burn=10",       // burns inverted
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q): want error, got nil", bad)
		}
	}
}

// sloClock is an adjustable fake clock.
type sloClock struct{ t time.Time }

func (c *sloClock) now() time.Time          { return c.t }
func (c *sloClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// sloRow reaches the slo row as the engine does: events go through a
// fold of the run, findings come back stamped with the row's name.
type sloRow struct {
	*sloMon
	run *fold
}

func (r sloRow) observe(e obs.Event) { r.run.apply(e) }

func (r sloRow) check(now time.Time, out []finding) []finding {
	return monitor{name: "slo", check: r.sloMon.check}.run(now, out)
}

func newTestSLOMon(t *testing.T, s SLO) (sloRow, *obs.Registry, *sloClock) {
	t.Helper()
	reg := obs.NewRegistry()
	clk := &sloClock{t: time.Unix(1_700_000_000, 0)}
	run := newFold(DefaultConfig())
	return sloRow{newSLOMon(s, reg, &run), &run}, reg, clk
}

func TestSLOQueueWaitBurnCritical(t *testing.T) {
	m, reg, clk := newTestSLOMon(t, SLO{QueueWaitP99: 2})
	hist := reg.Histogram("a4nn_sched_queue_wait_sim_seconds", obs.SecondsBuckets)

	// Baseline sample with no traffic.
	if f := m.check(clk.t, nil); len(f) != 0 {
		t.Fatalf("idle check produced findings: %+v", f)
	}
	// Every wait blows through the 2s bound: the whole fast window is
	// bad, burn = 1/0.01 = 100× ≫ the 14× page threshold.
	clk.advance(30 * time.Second)
	for i := 0; i < 20; i++ {
		hist.Observe(50)
	}
	out := m.check(clk.t, nil)
	if len(out) != 1 {
		t.Fatalf("findings = %+v, want one queue_wait finding", out)
	}
	f := out[0]
	if f.Monitor != "slo" || f.Key != "queue_wait" || f.Severity != SevCritical {
		t.Errorf("finding = %+v, want critical slo/queue_wait", f)
	}
	if f.Value < 14 {
		t.Errorf("burn = %v, want ≥ fast threshold 14", f.Value)
	}
	if !strings.Contains(m.detail(), "queue burn") {
		t.Errorf("detail = %q, want queue burn", m.detail())
	}

	// Compliant traffic dilutes the window back under the thresholds.
	clk.advance(15 * time.Second)
	for i := 0; i < 5000; i++ {
		hist.Observe(0.05)
	}
	if out := m.check(clk.t, nil); len(out) != 0 {
		t.Errorf("compliant traffic still alerting: %+v", out)
	}
}

func TestSLODropRateBurnWarning(t *testing.T) {
	m, reg, clk := newTestSLOMon(t, SLO{EventDropRate: 0.01})
	drop := reg.Counter("a4nn_events_dropped_total")
	emit := reg.Counter("a4nn_events_emitted_total")

	m.check(clk.t, nil) // baseline
	clk.advance(30 * time.Second)
	// 10% dropped against a 1% budget: burn 10× — above the 6× slow
	// threshold, below the 14× fast one → warning, not critical.
	emit.Add(90)
	drop.Add(10)
	out := m.check(clk.t, nil)
	if len(out) != 1 {
		t.Fatalf("findings = %+v, want one event_drop_rate finding", out)
	}
	if f := out[0]; f.Key != "event_drop_rate" || f.Severity != SevWarning {
		t.Errorf("finding = %+v, want warning slo/event_drop_rate", f)
	}

	// 100% dropped pages critical on the fast window.
	clk.advance(15 * time.Second)
	drop.Add(500)
	out = m.check(clk.t, nil)
	if len(out) != 1 || out[0].Severity != SevCritical {
		t.Fatalf("findings = %+v, want one critical", out)
	}
}

func TestSLOTurnaround(t *testing.T) {
	m, _, clk := newTestSLOMon(t, SLO{JobTurnaround: 10 * time.Minute})

	// No run start yet: nothing to measure.
	if out := m.check(clk.t, nil); len(out) != 0 {
		t.Fatalf("pre-start findings: %+v", out)
	}
	// As in the engine, the event's check cycle stamps the run start.
	m.observe(obs.Event{Type: obs.EventRunStart})
	m.check(clk.t, nil)
	clk.advance(5 * time.Minute)
	if out := m.check(clk.t, nil); len(out) != 0 {
		t.Fatalf("halfway findings: %+v", out)
	}
	clk.advance(4 * time.Minute) // 9m of 10m: 90% of budget spent
	out := m.check(clk.t, nil)
	if len(out) != 1 || out[0].Key != "job_turnaround" || out[0].Severity != SevWarning {
		t.Fatalf("findings = %+v, want turnaround warning", out)
	}
	clk.advance(2 * time.Minute) // 11m: deadline missed
	out = m.check(clk.t, nil)
	if len(out) != 1 || out[0].Severity != SevCritical {
		t.Fatalf("findings = %+v, want turnaround critical", out)
	}
	// The run finishing clears the objective (the miss already alerted;
	// a finished job must not page forever).
	m.observe(obs.Event{Type: obs.EventRunEnd})
	if out := m.check(clk.t, nil); len(out) != 0 {
		t.Fatalf("post-finish findings: %+v", out)
	}
	if !strings.Contains(m.detail(), "turnaround met") {
		t.Errorf("detail = %q, want turnaround met", m.detail())
	}
}

// TestSLOEngineIntegration runs the monitor inside a real engine: the
// burn-rate finding must surface as an ordinary managed alert.
func TestSLOEngineIntegration(t *testing.T) {
	o := obs.NewObserver()
	cfg := DefaultConfig()
	cfg.SLO = &SLO{EventDropRate: 0.01}
	eng, err := New(cfg, o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	found := false
	for _, ms := range eng.Report().Monitors {
		if ms.Name == "slo" {
			found = true
		}
	}
	if !found {
		t.Fatalf("slo monitor missing from report: %+v", eng.Report().Monitors)
	}

	clk := &sloClock{t: time.Unix(1_700_000_000, 0)}
	eng.now = clk.now
	reg := o.Registry()
	reg.Counter("a4nn_events_emitted_total").Add(1)
	eng.Check() // baseline sample
	clk.advance(time.Minute)
	reg.Counter("a4nn_events_dropped_total").Add(100)
	eng.Check()
	alerts := eng.ActiveAlerts()
	if len(alerts) == 0 {
		t.Fatal("burned budget raised no alert")
	}
	ok := false
	for _, a := range alerts {
		if a.Monitor == "slo" && a.Severity == SevCritical {
			ok = true
		}
	}
	if !ok {
		t.Errorf("alerts = %+v, want critical slo alert", alerts)
	}
}
