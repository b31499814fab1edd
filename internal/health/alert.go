package health

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"a4nn/internal/chaos"
	"a4nn/internal/durable"
	"a4nn/internal/obs"
)

// AlertsFile holds the run's alert history as JSON Lines, appended
// next to the lineage records and the event journal in the commons
// directory. Each state transition (fire, escalate, resolve, final
// snapshot at close) appends one line; readers fold by alert ID with
// last-line-wins, so a crash tears at most the final line.
const AlertsFile = "alerts.jsonl"

// Severity ranks an alert. Info alerts are advisory and do not degrade
// the aggregate status; warnings degrade it; any active critical alert
// makes the run unhealthy (/healthz returns 503).
type Severity string

// The three severities, ascending.
const (
	SevInfo     Severity = "info"
	SevWarning  Severity = "warning"
	SevCritical Severity = "critical"
)

// rank orders severities for escalation comparisons.
func (s Severity) rank() int {
	switch s {
	case SevCritical:
		return 2
	case SevWarning:
		return 1
	default:
		return 0
	}
}

// finding is one monitor's current complaint. Findings with the same
// monitor+key across consecutive checks deduplicate into a single
// alert whose Count tracks the repeats.
type finding struct {
	Monitor   string
	Key       string // instance within the monitor ("" for singletons)
	Severity  Severity
	Message   string
	Value     float64
	Threshold float64
}

func (f finding) id() string {
	if f.Key == "" {
		return f.Monitor
	}
	return f.Monitor + "/" + f.Key
}

// Alert is one tracked anomaly over its lifecycle: fired when a
// monitor first reports it, updated (Count, Value, severity
// escalation) while the monitor keeps reporting it, and resolved after
// the monitor has stayed quiet for the flap-suppression window.
type Alert struct {
	// ID is monitor or monitor/key, the deduplication identity.
	ID       string   `json:"id"`
	Monitor  string   `json:"monitor"`
	Key      string   `json:"key,omitempty"`
	Severity Severity `json:"severity"`
	Message  string   `json:"msg"`
	// Value and Threshold record the measurement that fired the alert
	// (latest values while active).
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// Count is how many checks reported the finding while active.
	Count int `json:"count"`
	// FiredAt/UpdatedAt/ResolvedAt are unix nanoseconds.
	FiredAt    int64 `json:"fired_at"`
	UpdatedAt  int64 `json:"updated_at"`
	Resolved   bool  `json:"resolved,omitempty"`
	ResolvedAt int64 `json:"resolved_at,omitempty"`
}

// maxResolvedHistory bounds the in-memory resolved-alert list; the
// full history lives in alerts.jsonl.
const maxResolvedHistory = 256

// manager is the alert lifecycle state machine. All methods are called
// under the engine's mutex.
type manager struct {
	resolveAfter int
	journal      *obs.Journal
	file         *durable.Log
	now          func() time.Time
	// notify, when set, receives every alert transition (the exec
	// sink's hook). Called under the engine mutex; must not block.
	notify func(a Alert, transition string)

	active   map[string]*Alert
	healthy  map[string]int // consecutive clean checks per active alert
	resolved []Alert

	firedInfo     *obs.Counter
	firedWarning  *obs.Counter
	firedCritical *obs.Counter
	resolvedTotal *obs.Counter
	activeGauge   *obs.Gauge
	fileErrs      *obs.Counter
}

func newManager(resolveAfter int, o *obs.Observer) *manager {
	reg := o.Registry()
	return &manager{
		resolveAfter:  resolveAfter,
		journal:       o.Journal(),
		now:           time.Now,
		active:        make(map[string]*Alert),
		healthy:       make(map[string]int),
		firedInfo:     reg.Counter(`a4nn_health_alerts_fired_total{severity="info"}`),
		firedWarning:  reg.Counter(`a4nn_health_alerts_fired_total{severity="warning"}`),
		firedCritical: reg.Counter(`a4nn_health_alerts_fired_total{severity="critical"}`),
		resolvedTotal: reg.Counter("a4nn_health_alerts_resolved_total"),
		activeGauge:   reg.Gauge("a4nn_health_alerts_active"),
		fileErrs:      reg.Counter("a4nn_health_alerts_file_errors_total"),
	}
}

// openFile attaches the append-only alerts sink. A torn final line of
// a crashed run is newline-terminated first, so the next transition
// is not glued onto the fragment and lost with it.
func (m *manager) openFile(path string) error {
	f, err := durable.OpenLog(path, durable.TerminateLine)
	if err != nil {
		return fmt.Errorf("health: open alerts file: %w", err)
	}
	m.file.Close()
	m.file = f
	return nil
}

// persist appends one alert state line (crash-safe: append-only, one
// line per transition; a torn final line is skipped by readers). The
// chaos point sits before the write, so an injected crash tears the
// file exactly where a real one would.
func (m *manager) persist(a *Alert) {
	if m.file == nil {
		return
	}
	line, err := json.Marshal(a)
	if err == nil {
		err = chaos.Point(chaos.PointAlertsAppend)
	}
	if err == nil {
		err = m.file.Append(append(line, '\n'))
	}
	if err != nil {
		m.fileErrs.Inc()
	}
}

func (m *manager) firedCounter(s Severity) *obs.Counter {
	switch s {
	case SevCritical:
		return m.firedCritical
	case SevWarning:
		return m.firedWarning
	default:
		return m.firedInfo
	}
}

// apply folds one check cycle's findings into the alert set: new
// findings fire alerts, repeated ones bump Count (escalating severity
// re-persists and re-emits), and active alerts whose monitor stayed
// quiet for resolveAfter consecutive checks resolve. Fire and resolve
// transitions append to alerts.jsonl and re-emit as journal events, so
// the SSE stream and follow mode carry them.
func (m *manager) apply(findings []finding) {
	if len(findings) == 0 && len(m.active) == 0 {
		return // healthy steady state: no transitions, no timestamping
	}
	now := m.now().UnixNano()
	seen := make(map[string]bool, len(findings))
	for _, f := range findings {
		id := f.id()
		seen[id] = true
		m.healthy[id] = 0
		if a, ok := m.active[id]; ok {
			a.Count++
			a.Message = f.Message
			a.Value = f.Value
			a.Threshold = f.Threshold
			a.UpdatedAt = now
			if f.Severity.rank() > a.Severity.rank() {
				a.Severity = f.Severity
				m.firedCounter(f.Severity).Inc()
				m.persist(a)
				m.emit(obs.EventAlert, a)
				if m.notify != nil {
					m.notify(*a, "escalated")
				}
			}
			continue
		}
		a := &Alert{
			ID:        id,
			Monitor:   f.Monitor,
			Key:       f.Key,
			Severity:  f.Severity,
			Message:   f.Message,
			Value:     f.Value,
			Threshold: f.Threshold,
			Count:     1,
			FiredAt:   now,
			UpdatedAt: now,
		}
		m.active[id] = a
		m.firedCounter(f.Severity).Inc()
		m.activeGauge.Set(float64(len(m.active)))
		m.persist(a)
		m.emit(obs.EventAlert, a)
		if m.notify != nil {
			m.notify(*a, "fired")
		}
	}
	for id, a := range m.active {
		if seen[id] {
			continue
		}
		m.healthy[id]++
		if m.healthy[id] < m.resolveAfter {
			continue
		}
		a.Resolved = true
		a.ResolvedAt = now
		a.UpdatedAt = now
		delete(m.active, id)
		delete(m.healthy, id)
		m.resolved = append(m.resolved, *a)
		if len(m.resolved) > maxResolvedHistory {
			m.resolved = m.resolved[len(m.resolved)-maxResolvedHistory:]
		}
		m.resolvedTotal.Inc()
		m.activeGauge.Set(float64(len(m.active)))
		m.persist(a)
		m.emit(obs.EventAlertResolved, a)
		if m.notify != nil {
			m.notify(*a, "resolved")
		}
	}
}

// emit republishes an alert transition as a typed journal event.
func (m *manager) emit(typ string, a *Alert) {
	m.journal.Emit(obs.Event{
		Type:     typ,
		AlertID:  a.ID,
		Monitor:  a.Monitor,
		Severity: string(a.Severity),
		Msg:      a.Message,
		Count:    a.Count,
	})
}

// status aggregates the active set: critical beats degraded beats ok;
// info-only alerts leave the run ok (they are advisory).
func (m *manager) status() Status {
	st := StatusOK
	for _, a := range m.active {
		switch a.Severity {
		case SevCritical:
			return StatusCritical
		case SevWarning:
			st = StatusDegraded
		}
	}
	return st
}

// close snapshots the final Count/severity of every still-active alert
// into the file (their fire lines carry Count 1), syncs, and releases
// the sink.
func (m *manager) close() error {
	for _, id := range sortedAlertIDs(m.active) {
		m.persist(m.active[id])
	}
	err := m.file.Close()
	m.file = nil
	return err
}

func sortedAlertIDs(m map[string]*Alert) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ReadAlerts loads an alerts.jsonl file, folding the per-transition
// lines into the latest state of each alert (last line wins per ID,
// so a re-fired alert reads as its most recent lifecycle). Blank and
// torn lines are skipped. Alerts return ordered by FiredAt, then ID.
func ReadAlerts(path string) ([]Alert, error) {
	lines, err := durable.ReadJSONL[Alert](path)
	if err != nil {
		return nil, err
	}
	latest := make(map[string]Alert)
	for _, a := range lines {
		if a.ID != "" { // a foreign line that happens to be JSON
			latest[a.ID] = a
		}
	}
	out := make([]Alert, 0, len(latest))
	for _, a := range latest {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FiredAt != out[j].FiredAt {
			return out[i].FiredAt < out[j].FiredAt
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}
