// Package health is the workflow's in-situ health monitor: a streaming
// engine that consumes the run's own analytics — the event journal's
// broker, the metrics registry, and the Go runtime — and turns them
// into actionable alerts while the search is still running. It is the
// "act on it" counterpart of the observability stack's "record it":
// the paper's whole premise is intervening on partial signals
// mid-search, and the health engine applies the same idea to the
// search process itself.
//
// Monitors: training divergence (NaN/Inf, rising loss, accuracy
// collapse), learning-curve plateau, prediction-engine miscalibration
// (rolling |predicted−actual| from termination events), device-pool
// degradation (dead devices, straggler rate, capacity floor), queue
// saturation (mean wait vs a warmup baseline), journal/broker
// backpressure (drop and file-error counters), and a runtime/metrics
// sampler (goroutines, heap growth, GC pause p99).
//
// Findings feed an alert manager with severities, deduplication
// (repeats bump a Count), flap suppression (an alert resolves only
// after ResolveAfter consecutive clean checks), and resolve tracking.
// Alerts append crash-safely to alerts.jsonl, re-emit as typed journal
// events (so the SSE stream and follow mode carry them for free), and
// surface via the /healthz and /api/alerts handlers.
//
// Like the rest of the observability stack, disabled health is free: a
// nil *Engine's Observe is one nil check and zero allocations
// (BenchmarkDisabledHealth, gated by make bench-gate).
package health

import (
	"fmt"
	"sync"
	"time"

	"a4nn/internal/obs"
)

// Config tunes the monitors and the alert lifecycle. The zero value of
// a tunable selects its default; every tunable's -health-config key and
// default is a row of configKnobs, and DefaultConfig returns them all.
type Config struct {
	// DivergenceWindow is how many consecutive epochs of rising loss
	// fire the divergence alert.
	DivergenceWindow int
	// DivergenceDrop is the accuracy collapse threshold: points below
	// the model's best validation accuracy.
	DivergenceDrop float64
	// PlateauWindow is how many epochs of accuracy moving at most
	// plateauEpsilon points make a flat learning curve.
	PlateauWindow int
	// CalibrationWindow is how many terminations the prediction
	// engine's rolling mean |predicted − actual| spans.
	CalibrationWindow int
	// MinCapacity is the alive/total device fraction below which pool
	// degradation escalates from warning to critical.
	MinCapacity float64
	// StragglerRate is the warning threshold on straggler events per
	// device-generation.
	StragglerRate float64
	// SampleInterval throttles the runtime/metrics sampler and paces
	// the engine's periodic check when no events flow.
	SampleInterval time.Duration
	// MaxGoroutines, HeapGrowthFactor, and GCPauseP99 are the runtime
	// sampler's warning thresholds; a negative MaxGoroutines disables
	// that check.
	MaxGoroutines    int
	HeapGrowthFactor float64
	GCPauseP99       time.Duration
	// RSSWarnMB/RSSCritMB bound the process resident set size in MiB
	// and FDWarn/FDCrit the open file descriptor count — OS-level leaks
	// the Go heap metrics can't see (mmap growth, cgo, leaked sockets or
	// journal handles). A negative warn value disables that pair; both
	// checks stay silent on platforms without a readable /proc/self.
	RSSWarnMB int
	RSSCritMB int
	FDWarn    int
	FDCrit    int
	// ResolveAfter is the flap-suppression window: an active alert
	// resolves only after this many consecutive checks in which its
	// monitor stayed quiet.
	ResolveAfter int
	// AlertCommand, when non-empty, is a shell command executed (via
	// `sh -c`) on every alert transition: the alert JSON arrives on
	// stdin and A4NN_ALERT_* environment variables carry the headline
	// fields. Execution is asynchronous and never blocks a check cycle.
	AlertCommand string
	// AlertCommandInterval rate-limits AlertCommand per alert ID;
	// transitions inside the window are counted as dropped, not queued.
	AlertCommandInterval time.Duration
	// EmitRuntimeSamples publishes each runtime sample as a
	// runtime_sample journal event, so a cross-process follower
	// (a4nn-serve -follow -health) monitors the producer's runtime
	// rather than its own.
	EmitRuntimeSamples bool
	// DiskPath, when non-empty, enables the disk watermark monitor on
	// the filesystem holding that path (normally the commons dir — the
	// store's durability is worthless on a full disk).
	DiskPath string
	// DiskWarnFrac and DiskCritFrac are the free-space fractions below
	// which the disk monitor warns / goes critical.
	DiskWarnFrac float64
	DiskCritFrac float64
	// SLO, when non-nil, enables the service-level-objective monitor
	// family (error budgets and burn-rate alerts; see SLO and ParseSLO).
	SLO *SLO
	// Regression, when non-nil (with a Query), enables the cross-run
	// regression monitor: live series means from the run's history
	// store compared against a committed or prior-run Baseline.
	Regression *RegressionConfig
}

// subscriberBuffer sizes the engine's broker subscription: it
// comfortably holds a generation's burst.
const subscriberBuffer = 4096

// DefaultConfig returns every tunable at its default.
func DefaultConfig() Config { return Config{}.withDefaults() }

// withDefaults fills unset tunables from configKnobs.
func (c Config) withDefaults() Config {
	fill(&c, configKnobs)
	return c
}

// ParseConfig parses the compact CLI specification accepted by
// -health-config, mirroring the fault-plan syntax: key=value pairs
// separated by ';' or ',', e.g. "divergence-window=5;min-capacity=0.6".
// The keys and their defaults are the rows of configKnobs; unset keys
// keep their defaults, so an empty spec returns DefaultConfig.
func ParseConfig(spec string) (Config, error) {
	cfg := DefaultConfig()
	if err := parseSpec(spec, "config", configKnobs, &cfg); err != nil {
		return cfg, err
	}
	if cfg.MinCapacity > 1 {
		return cfg, fmt.Errorf("health: min-capacity is a fraction, got %v", cfg.MinCapacity)
	}
	if cfg.DiskCritFrac >= cfg.DiskWarnFrac {
		return cfg, fmt.Errorf("health: disk-crit (%v) must be below disk-warn (%v)",
			cfg.DiskCritFrac, cfg.DiskWarnFrac)
	}
	if cfg.RSSCritMB <= cfg.RSSWarnMB {
		return cfg, fmt.Errorf("health: rss-crit-mb (%d) must exceed rss-warn-mb (%d)",
			cfg.RSSCritMB, cfg.RSSWarnMB)
	}
	if cfg.FDCrit <= cfg.FDWarn {
		return cfg, fmt.Errorf("health: fd-crit (%d) must exceed fd-warn (%d)",
			cfg.FDCrit, cfg.FDWarn)
	}
	return cfg, nil
}

// Status is the aggregate health of a run.
type Status int

// Aggregate statuses, worsening.
const (
	StatusOK       Status = iota // no active warning or critical alerts
	StatusDegraded               // active warnings (info alerts never degrade)
	StatusCritical               // at least one active critical alert
)

// String returns "ok", "degraded", or "critical".
func (s Status) String() string {
	switch s {
	case StatusCritical:
		return "critical"
	case StatusDegraded:
		return "degraded"
	default:
		return "ok"
	}
}

// MonitorStatus is one monitor's row in a Report.
type MonitorStatus struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	Active int    `json:"active"`
	Detail string `json:"detail,omitempty"`
}

// Report is the /healthz payload: the aggregate status plus
// per-monitor detail and the active alert list.
type Report struct {
	Status   string          `json:"status"`
	Checks   uint64          `json:"checks"`
	Active   int             `json:"active_alerts"`
	Critical int             `json:"critical_alerts"`
	Monitors []MonitorStatus `json:"monitors"`
	Alerts   []Alert         `json:"alerts,omitempty"`
}

// Engine evaluates the monitors over a run's event stream and
// registry. Feed it events synchronously with Observe, or let Start
// subscribe it to the observer's broker and consume in the background;
// either way all evaluation happens on one goroutine at a time under
// the engine's mutex, so monitors are simple single-threaded state
// machines.
//
// A nil *Engine is the disabled monitor: Observe costs one nil check
// and zero allocations, Status reports ok, and lifecycle methods are
// no-ops.
type Engine struct {
	cfg Config
	obs *obs.Observer

	mu       sync.Mutex
	monitors []monitor
	mgr      *manager
	sink     *execSink
	scratch  []finding // reused across checks
	sub      *obs.Subscriber
	done     chan struct{}

	checks *obs.Counter
}

// New builds an engine over the observer's journal and registry. The
// observer must be non-nil — health consumes the event stream, so a
// run without observability has nothing to monitor.
func New(cfg Config, o *obs.Observer) (*Engine, error) {
	if o == nil {
		return nil, fmt.Errorf("health: nil observer (health monitoring needs the event journal; enable observability first)")
	}
	cfg = cfg.withDefaults()
	reg := o.Registry()
	e := &Engine{
		cfg: cfg,
		obs: o,
		monitors: []monitor{
			newDivergence(cfg),
			newPlateau(cfg),
			newCalibration(cfg),
			newDevicepool(cfg),
			newQueuewait(reg),
			newBackpressure(reg),
			newRuntimeMon(cfg, reg, o.Journal()),
			newRecoveryMon(),
		},
		mgr:    newManager(cfg.ResolveAfter, o),
		checks: reg.Counter("a4nn_health_checks_total"),
	}
	if cfg.DiskPath != "" {
		e.monitors = append(e.monitors, newDiskMon(cfg, reg))
	}
	if cfg.SLO != nil {
		e.monitors = append(e.monitors, newSLOMon(*cfg.SLO, reg, nil))
	}
	if cfg.Regression != nil && cfg.Regression.Query != nil {
		e.monitors = append(e.monitors, newRegression(*cfg.Regression))
	}
	if cfg.AlertCommand != "" {
		e.sink = newExecSink(cfg.AlertCommand, cfg.AlertCommandInterval, o)
		e.mgr.notify = e.sink.notify
	}
	return e, nil
}

// OpenAlertsFile attaches the crash-safe alerts.jsonl sink at path.
// Call before Start; alerts fired earlier live only in memory.
func (e *Engine) OpenAlertsFile(path string) error {
	if e == nil {
		return fmt.Errorf("health: OpenAlertsFile on nil engine")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mgr.openFile(path)
}

// Observe feeds one event through every monitor and runs a check
// cycle. It is the synchronous entry point (Start pumps the broker
// into it); alert events — including the engine's own re-emissions —
// are skipped, so the engine never feeds back into itself. Nil-safe
// and allocation-free when disabled.
func (e *Engine) Observe(ev obs.Event) {
	if e == nil {
		return
	}
	if ev.Type == obs.EventAlert || ev.Type == obs.EventAlertResolved {
		return
	}
	e.mu.Lock()
	for _, m := range e.monitors {
		m.observe(ev)
	}
	e.checkLocked()
	e.mu.Unlock()
}

// Check runs one evaluation cycle without an event — the periodic
// path that keeps the runtime sampler and resolve tracking moving when
// the search is quiet. Nil-safe.
func (e *Engine) Check() {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.checkLocked()
	e.mu.Unlock()
}

// checkLocked gathers every monitor's findings and applies them to the
// alert manager. Caller holds e.mu.
func (e *Engine) checkLocked() {
	e.scratch = e.scratch[:0]
	for _, m := range e.monitors {
		e.scratch = m.check(e.scratch)
	}
	e.mgr.apply(e.scratch)
	e.checks.Inc()
}

// Start subscribes the engine to the observer's broker and consumes
// events on a background goroutine, with a periodic tick at
// SampleInterval for the runtime sampler. Call Close to drain and
// stop. Calling Start twice, or on a nil engine, is a no-op.
func (e *Engine) Start() {
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.sub != nil {
		e.mu.Unlock()
		return
	}
	sub := e.obs.Journal().Subscribe(subscriberBuffer)
	done := make(chan struct{})
	e.sub, e.done = sub, done
	interval := e.cfg.SampleInterval
	e.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case ev, ok := <-sub.C():
				if !ok {
					return // Close drained us, or the broker evicted us
				}
				e.Observe(ev)
			case <-tick.C:
				e.Check()
			}
		}
	}()
}

// Close drains the subscription (events already queued are still
// evaluated), runs a final check, snapshots active alerts into
// alerts.jsonl, and syncs and releases the file. Safe to call without
// Start, more than once, and on a nil engine.
func (e *Engine) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	sub, done := e.sub, e.done
	e.sub, e.done = nil, nil
	e.mu.Unlock()
	if sub != nil {
		// Closing the subscriber closes its channel; the pump goroutine
		// still receives everything buffered before seeing !ok.
		sub.Close()
		<-done
	}
	e.mu.Lock()
	e.checkLocked()
	err := e.mgr.close()
	sink := e.sink
	e.sink = nil
	e.mgr.notify = nil
	e.mu.Unlock()
	// The sink drains outside the engine mutex: a slow alert command
	// must not stall Observe on another goroutine.
	sink.close()
	return err
}

// Status returns the aggregate status (StatusOK on a nil engine).
func (e *Engine) Status() Status {
	if e == nil {
		return StatusOK
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mgr.status()
}

// ActiveAlerts returns a copy of the active alerts, ordered by
// FiredAt then ID. Nil-safe.
func (e *Engine) ActiveAlerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.mgr.active))
	for _, id := range sortedAlertIDs(e.mgr.active) {
		out = append(out, *e.mgr.active[id])
	}
	sortAlerts(out)
	return out
}

// ResolvedAlerts returns the bounded in-memory resolved history,
// oldest first. Nil-safe.
func (e *Engine) ResolvedAlerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Alert(nil), e.mgr.resolved...)
}

// CriticalActive counts active critical alerts (the -health-strict
// exit condition). Nil-safe.
func (e *Engine) CriticalActive() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, a := range e.mgr.active {
		if a.Severity == SevCritical {
			n++
		}
	}
	return n
}

// Report builds the /healthz payload. Nil-safe: a nil engine reports
// status ok with no monitors.
func (e *Engine) Report() Report {
	if e == nil {
		return Report{Status: StatusOK.String()}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	rep := Report{
		Status: e.mgr.status().String(),
		Checks: e.checks.Value(),
		Active: len(e.mgr.active),
	}
	perMon := make(map[string][2]int) // active, worst severity rank
	for _, a := range e.mgr.active {
		v := perMon[a.Monitor]
		v[0]++
		if r := a.Severity.rank(); r > v[1] {
			v[1] = r
		}
		perMon[a.Monitor] = v
		if a.Severity == SevCritical {
			rep.Critical++
		}
	}
	for _, m := range e.monitors {
		v := perMon[m.name()]
		st := StatusOK
		switch v[1] {
		case SevCritical.rank():
			st = StatusCritical
		case SevWarning.rank():
			if v[0] > 0 {
				st = StatusDegraded
			}
		}
		rep.Monitors = append(rep.Monitors, MonitorStatus{
			Name:   m.name(),
			Status: st.String(),
			Active: v[0],
			Detail: m.detail(),
		})
	}
	for _, id := range sortedAlertIDs(e.mgr.active) {
		rep.Alerts = append(rep.Alerts, *e.mgr.active[id])
	}
	sortAlerts(rep.Alerts)
	return rep
}

// sortAlerts orders by FiredAt then ID.
func sortAlerts(alerts []Alert) {
	for i := 1; i < len(alerts); i++ {
		for j := i; j > 0; j-- {
			a, b := &alerts[j-1], &alerts[j]
			if a.FiredAt < b.FiredAt || (a.FiredAt == b.FiredAt && a.ID <= b.ID) {
				break
			}
			alerts[j-1], alerts[j] = *b, *a
		}
	}
}
