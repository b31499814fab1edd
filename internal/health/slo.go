package health

// The SLO monitor family turns the health engine from anomaly
// detection ("something looks broken") into objective tracking ("we
// are spending the error budget faster than we can afford"). Each job
// declares service-level objectives fault-plan-style (-slo
// "queue_wait_p99=2s,job_turnaround=10m,event_drop_rate=0.01"); the
// monitor measures compliance from the signals the observability stack
// already collects — the scheduler's queue-wait histogram, the
// journal's emit/drop counters, the run's own lifecycle events — and
// alerts on *burn rate*, the multiplier at which the budget is being
// consumed, over a fast and a slow window (the SRE multiwindow
// pattern): a fast-window burn above FastBurn means the budget is
// vanishing in minutes and pages critical; a slow-window burn above
// SlowBurn is sustained slow bleeding and warns. Findings flow through
// the ordinary alert manager, so dedup, flap suppression, escalation,
// alerts.jsonl, and /healthz all apply unchanged. Because every job in
// the multi-tenant service owns a health engine, error budgets are
// per-job by construction.

import (
	"fmt"
	"strings"
	"time"

	"a4nn/internal/obs"
)

// SLO declares a job's service-level objectives. Zero-valued
// objectives are disabled; at least one must be set (ParseSLO
// enforces this). Every field's -slo key, and the tuning fields'
// defaults, are the rows of sloKnobs.
type SLO struct {
	// QueueWaitP99 is the target bound, in simulated seconds, that the
	// Objective fraction of generation queue waits must stay under.
	// Bucket-granular: the target rounds up to the enclosing histogram
	// bucket bound.
	QueueWaitP99 float64
	// JobTurnaround is the wall-clock deadline for the whole search.
	JobTurnaround time.Duration
	// EventDropRate is the tolerated fraction of journal events dropped
	// by the broker fanout; the rate itself is the error budget.
	EventDropRate float64
	// Objective is the compliance goal for QueueWaitP99; the error
	// budget is 1 − Objective.
	Objective float64
	// FastWindow and SlowWindow bound the burn-rate measurements.
	FastWindow time.Duration
	SlowWindow time.Duration
	// FastBurn and SlowBurn are the burn-rate multipliers above which
	// the fast window pages critical and the slow window warns (by
	// default the SRE-book pairing).
	FastBurn float64
	SlowBurn float64
}

// withDefaults fills zero tuning fields (objectives stay as declared).
func (s SLO) withDefaults() SLO {
	fill(&s, sloKnobs)
	return s
}

// ParseSLO parses the compact -slo specification: key=value pairs
// separated by ';' or ',', e.g.
// "queue_wait_p99=2s,job_turnaround=10m,event_drop_rate=0.01". The keys
// are the rows of sloKnobs: the three objectives — queue_wait_p99 and
// job_turnaround take durations, event_drop_rate a fraction — of which
// at least one must be set, and the burn-rate tuning, which keeps its
// defaults unless set.
func ParseSLO(spec string) (*SLO, error) {
	var s SLO
	if err := parseSpec(spec, "slo", sloKnobs, &s); err != nil {
		return nil, err
	}
	if s.QueueWaitP99 <= 0 && s.JobTurnaround <= 0 && s.EventDropRate <= 0 {
		return nil, fmt.Errorf("health: slo spec %q declares no objective (set queue_wait_p99, job_turnaround, or event_drop_rate)", spec)
	}
	s = s.withDefaults()
	if s.SlowWindow <= s.FastWindow {
		return nil, fmt.Errorf("health: slo slow_window (%v) must exceed fast_window (%v)", s.SlowWindow, s.FastWindow)
	}
	if s.SlowBurn >= s.FastBurn {
		return nil, fmt.Errorf("health: slo slow_burn (%v) must be below fast_burn (%v)", s.SlowBurn, s.FastBurn)
	}
	return &s, nil
}

// sloSample is one timestamped reading of the cumulative good/total
// counters every ratio objective burns against.
type sloSample struct {
	t       time.Time
	queueOK uint64 // queue waits at or under the target bound
	queueN  uint64 // queue waits total
	dropped uint64 // journal events dropped
	emitted uint64 // journal events emitted
}

// sloMon tracks the declared objectives. Like every monitor it runs
// single-threaded under the engine mutex; unlike the anomaly monitors
// it keeps a time-indexed ring of counter samples so burn rates are
// measured over wall-clock windows, not check counts. Nil-safe: a nil
// *sloMon observes and checks for free (BenchmarkDisabledSLO).
type sloMon struct {
	slo  SLO
	hist *obs.Histogram
	drop *obs.Counter
	emit *obs.Counter
	now  func() time.Time

	samples  []sloSample // ring, oldest at shead
	shead    int
	sn       int
	lastPush time.Time

	started  time.Time // wall-clock run start (first event observed)
	finished bool      // run_end seen

	fastQueueBurn, slowQueueBurn float64 // last measured, for detail()
	fastDropBurn, slowDropBurn   float64
}

// newSLOMon builds the monitor over the registry's scheduler and
// journal instruments. The ring is sized so the slow window is covered
// at the push granularity.
func newSLOMon(s SLO, reg *obs.Registry, now func() time.Time) *sloMon {
	s = s.withDefaults()
	if now == nil {
		now = time.Now
	}
	n := int(s.SlowWindow/granule(s)) + 2
	return &sloMon{
		slo:     s,
		hist:    reg.Histogram("a4nn_sched_queue_wait_sim_seconds", obs.SecondsBuckets),
		drop:    reg.Counter("a4nn_events_dropped_total"),
		emit:    reg.Counter("a4nn_events_emitted_total"),
		now:     now,
		samples: make([]sloSample, n),
	}
}

// granule is the sampling period of the window ring: fine enough that
// the fast window holds several samples, bounded below so a tiny
// window cannot make the ring huge.
func granule(s SLO) time.Duration {
	g := s.FastWindow / 6
	if g < 10*time.Millisecond {
		g = 10 * time.Millisecond
	}
	return g
}

func (m *sloMon) name() string { return "slo" }

func (m *sloMon) observe(e obs.Event) {
	if m == nil {
		return
	}
	if m.started.IsZero() {
		m.started = m.now()
	}
	if e.Type == obs.EventRunEnd {
		m.finished = true
	}
}

func (m *sloMon) check(out []finding) []finding {
	if m == nil {
		return out
	}
	now := m.now()
	m.push(now)
	if m.slo.QueueWaitP99 > 0 {
		out = m.checkRatio(out, now, "queue_wait",
			func(s sloSample) (uint64, uint64) { return s.queueN - s.queueOK, s.queueN },
			1-m.slo.Objective,
			fmt.Sprintf("p99 queue wait over %.3gs (objective %.4g)", m.slo.QueueWaitP99, m.slo.Objective),
			&m.fastQueueBurn, &m.slowQueueBurn)
	}
	if m.slo.EventDropRate > 0 {
		out = m.checkRatio(out, now, "event_drop_rate",
			func(s sloSample) (uint64, uint64) { return s.dropped, s.emitted + s.dropped },
			m.slo.EventDropRate,
			fmt.Sprintf("event drop rate over %.4g", m.slo.EventDropRate),
			&m.fastDropBurn, &m.slowDropBurn)
	}
	if m.slo.JobTurnaround > 0 && !m.started.IsZero() && !m.finished {
		elapsed := now.Sub(m.started)
		used := elapsed.Seconds() / m.slo.JobTurnaround.Seconds()
		switch {
		case used >= 1:
			out = append(out, finding{
				Monitor: m.name(), Key: "job_turnaround", Severity: SevCritical,
				Message: fmt.Sprintf("turnaround objective missed: running %v against a %v deadline",
					elapsed.Round(time.Second), m.slo.JobTurnaround),
				Value: used, Threshold: 1,
			})
		case used >= 0.8:
			out = append(out, finding{
				Monitor: m.name(), Key: "job_turnaround", Severity: SevWarning,
				Message: fmt.Sprintf("turnaround budget %d%% spent: %v of %v",
					int(used*100), elapsed.Round(time.Second), m.slo.JobTurnaround),
				Value: used, Threshold: 0.8,
			})
		}
	}
	return out
}

// checkRatio measures one ratio objective's burn over both windows and
// appends at most one finding: critical on the fast window, warning on
// the slow one. bad/total extract the objective's cumulative counters
// from a sample delta; budget is the tolerated bad fraction.
func (m *sloMon) checkRatio(out []finding, now time.Time, key string,
	counters func(sloSample) (bad, total uint64), budget float64, what string,
	fastOut, slowOut *float64) []finding {

	cur := m.read(now)
	fast := m.burn(cur, m.at(now.Add(-m.slo.FastWindow)), counters, budget)
	slow := m.burn(cur, m.at(now.Add(-m.slo.SlowWindow)), counters, budget)
	*fastOut, *slowOut = fast, slow
	switch {
	case fast >= m.slo.FastBurn:
		out = append(out, finding{
			Monitor: m.name(), Key: key, Severity: SevCritical,
			Message: fmt.Sprintf("error budget burning ×%.1f over the last %v: %s",
				fast, m.slo.FastWindow, what),
			Value: fast, Threshold: m.slo.FastBurn,
		})
	case slow >= m.slo.SlowBurn:
		out = append(out, finding{
			Monitor: m.name(), Key: key, Severity: SevWarning,
			Message: fmt.Sprintf("error budget burning ×%.1f over the last %v: %s",
				slow, m.slo.SlowWindow, what),
			Value: slow, Threshold: m.slo.SlowBurn,
		})
	}
	return out
}

// burn computes the budget-burn multiplier between two samples: the
// bad fraction of the delta divided by the budget. No traffic in the
// window burns nothing.
func (m *sloMon) burn(cur, base sloSample, counters func(sloSample) (bad, total uint64), budget float64) float64 {
	curBad, curTotal := counters(cur)
	baseBad, baseTotal := counters(base)
	dTotal := curTotal - baseTotal
	if dTotal == 0 || budget <= 0 {
		return 0
	}
	return (float64(curBad-baseBad) / float64(dTotal)) / budget
}

// read takes a fresh counter reading.
func (m *sloMon) read(now time.Time) sloSample {
	return sloSample{
		t:       now,
		queueOK: m.hist.BelowCount(m.slo.QueueWaitP99),
		queueN:  m.hist.Count(),
		dropped: m.drop.Value(),
		emitted: m.emit.Value(),
	}
}

// push appends a reading to the window ring at the sampling granule,
// evicting nothing — the ring is sized to cover the slow window.
func (m *sloMon) push(now time.Time) {
	if !m.lastPush.IsZero() && now.Sub(m.lastPush) < granule(m.slo) {
		return
	}
	m.lastPush = now
	s := m.read(now)
	if m.sn < len(m.samples) {
		m.samples[(m.shead+m.sn)%len(m.samples)] = s
		m.sn++
		return
	}
	m.samples[m.shead] = s
	m.shead = (m.shead + 1) % len(m.samples)
}

// at returns the newest sample taken at or before t, falling back to
// the oldest available — a run younger than the window burns against
// its own start, which is the only honest baseline it has.
func (m *sloMon) at(t time.Time) sloSample {
	var best sloSample
	found := false
	for i := 0; i < m.sn; i++ {
		s := m.samples[(m.shead+i)%len(m.samples)]
		if !s.t.After(t) {
			best, found = s, true
			continue
		}
		break // ring is time-ordered; later samples are newer still
	}
	if found {
		return best
	}
	if m.sn > 0 {
		return m.samples[m.shead]
	}
	return sloSample{}
}

func (m *sloMon) detail() string {
	if m == nil {
		return ""
	}
	parts := make([]string, 0, 3)
	if m.slo.QueueWaitP99 > 0 {
		parts = append(parts, fmt.Sprintf("queue burn ×%.1f/×%.1f", m.fastQueueBurn, m.slowQueueBurn))
	}
	if m.slo.EventDropRate > 0 {
		parts = append(parts, fmt.Sprintf("drop burn ×%.1f/×%.1f", m.fastDropBurn, m.slowDropBurn))
	}
	if m.slo.JobTurnaround > 0 {
		switch {
		case m.finished:
			parts = append(parts, "turnaround met")
		case m.started.IsZero():
			parts = append(parts, "turnaround pending")
		default:
			parts = append(parts, fmt.Sprintf("turnaround %v/%v",
				m.now().Sub(m.started).Round(time.Second), m.slo.JobTurnaround))
		}
	}
	return strings.Join(parts, "; ") + " (fast/slow windows)"
}
