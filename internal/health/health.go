// Package health is the workflow's in-situ health monitor: a streaming
// engine that consumes the run's own analytics — the event journal,
// the metrics registry, and the Go runtime — and turns them
// into actionable alerts while the search is still running. It is the
// "act on it" counterpart of the observability stack's "record it":
// the paper's whole premise is intervening on partial signals
// mid-search, and the health engine applies the same idea to the
// search process itself.
//
// Engine.Observe applies each event once to a fold of the run, and the
// monitors are the rows of one table that read it, in Report order:
// divergence (NaN/Inf, rising loss, accuracy collapse), plateau (flat
// learning curves), calibration (rolling |predicted−actual| at
// termination), devices (dead devices, straggler rate, capacity floor),
// queue (mean wait vs a warmup baseline), backpressure (journal drop and
// file-error counters), runtime (goroutines, heap growth, GC pause p99,
// RSS, open fds), recovery (quarantined files, lost records) and, when
// configured, disk (free-space watermarks), slo (error-budget burn) and
// regression (series means against a baseline).
//
// Findings feed an alert manager with severities, deduplication
// (repeats bump a Count), flap suppression (an alert resolves only
// after ResolveAfter consecutive clean checks), and resolve tracking.
// Alerts append crash-safely to alerts.jsonl, re-emit as typed journal
// events (so the SSE stream and follow mode carry them for free), and
// surface via the /healthz and /api/alerts handlers.
//
// The engine owns time: it reads its clock once per check cycle and
// hands that instant to the rows and the alert manager, which never
// read the clock themselves.
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
// subscribe it to the observer's journal and consume in the background;
// either way all evaluation happens on one goroutine at a time under
// the engine's mutex, so the fold and the rows keep plain state.
//
// A nil *Engine is the disabled monitor: Observe costs one nil check
// and zero allocations, Status reports ok, and lifecycle methods are
// no-ops.
type Engine struct {
	cfg Config
	obs *obs.Observer

	now func() time.Time // the one clock, read once per check; tests step it

	mu        sync.Mutex
	fold      fold      // the run, each event applied once
	monitors  []monitor // the rows, in Report order
	sampling  cadence   // the runtime and disk readings' shared cadence
	sampleDue bool      // this check is one of its instants
	runtime   runtimeMon
	disk      diskMon
	bp        backpressure
	mgr       *manager
	scratch   []finding // reused across checks
	sub       *obs.Subscriber
	done      chan struct{}

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
		cfg:      cfg,
		obs:      o,
		now:      time.Now,
		fold:     newFold(cfg),
		sampling: cadence{every: cfg.SampleInterval},
		runtime:  newRuntimeMon(reg),
		disk:     diskMon{statfs: statfsImpl, gFree: reg.Gauge("a4nn_health_disk_free_fraction")},
		bp: backpressure{dropped: reg.Counter("a4nn_events_dropped_total"),
			fileErrs: reg.Counter("a4nn_events_file_errors_total")},
		mgr:    newManager(cfg.ResolveAfter, o),
		checks: reg.Counter("a4nn_health_checks_total"),
	}
	e.monitors = []monitor{
		{"divergence", e.divergence, e.divergenceDetail},
		{"plateau", e.plateau, e.plateauDetail},
		{"calibration", e.calibration, e.calibrationDetail},
		{"devices", e.devices, e.devicesDetail},
		{"queue", e.queue, e.queueDetail},
		{"backpressure", e.bp.check, e.bp.detail},
		{"runtime", e.runtimeCheck, e.runtimeDetail},
		{"recovery", e.recovery, e.recoveryDetail},
	}
	if cfg.DiskPath != "" {
		e.monitors = append(e.monitors, monitor{"disk", e.diskCheck, e.diskDetail})
	}
	if cfg.SLO != nil {
		m := newSLOMon(*cfg.SLO, reg, &e.fold)
		e.monitors = append(e.monitors, monitor{"slo", m.check, m.detail})
	}
	if cfg.Regression != nil && cfg.Regression.Query != nil {
		r := newRegression(*cfg.Regression)
		e.monitors = append(e.monitors, monitor{"regression", r.check, r.detail})
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

// Observe folds one event into the run and runs a check cycle. It is
// the synchronous entry point (Start pumps the journal into it); alert
// events — including the engine's own re-emissions — are skipped, so
// the engine never feeds back into itself. Nil-safe and
// allocation-free when disabled.
func (e *Engine) Observe(ev obs.Event) {
	if e == nil {
		return
	}
	if ev.Type == obs.EventAlert || ev.Type == obs.EventAlertResolved {
		return
	}
	e.mu.Lock()
	e.fold.apply(ev)
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

// checkLocked reads the clock once, gathers every row's findings at
// that instant and applies them to the alert manager. Caller holds e.mu.
func (e *Engine) checkLocked() {
	now := e.now()
	e.sampleDue = e.sampling.due(now)
	e.scratch = e.scratch[:0]
	for _, m := range e.monitors {
		e.scratch = m.run(now, e.scratch)
	}
	e.mgr.apply(now, e.scratch)
	e.checks.Inc()
}

// Start subscribes the engine to the observer's journal and consumes
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
	sub := e.obs.Journal().Subscribe()
	done := make(chan struct{})
	e.sub, e.done = sub, done
	interval := e.cfg.SampleInterval
	e.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var batch []obs.Event
		// Until Close has been drained, or the journal evicted us.
		for open := true; open; {
			batch, open = sub.Read(batch)
			for i := range batch {
				e.Observe(batch[i])
			}
			if open && len(batch) == 0 {
				select {
				case <-sub.Wake():
				case <-tick.C:
					e.Check()
				}
			}
		}
	}()
}

// Close drains the subscription (events published before the call are
// still evaluated), runs a final check, snapshots active alerts into
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
		// The closed subscriber still reads everything published
		// before Close; the pump returns once it has.
		sub.Close()
		<-done
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.checkLocked()
	return e.mgr.close()
}

// Status returns the aggregate status (StatusOK on a nil engine).
func (e *Engine) Status() Status {
	if e == nil {
		return StatusOK
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st, _, _ := e.mgr.status("")
	return st
}

// ActiveAlerts returns a copy of the active alerts, ordered by
// FiredAt then ID. Nil-safe.
func (e *Engine) ActiveAlerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mgr.activeByFired()
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
	_, _, crit := e.mgr.status("")
	return crit
}

// Report builds the /healthz payload: one row per monitor, in table
// order. Nil-safe: a nil engine reports status ok with no monitors.
func (e *Engine) Report() Report {
	if e == nil {
		return Report{Status: StatusOK.String()}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st, active, crit := e.mgr.status("")
	rep := Report{Status: st.String(), Checks: e.checks.Value(), Active: active, Critical: crit}
	for _, m := range e.monitors {
		st, n, _ := e.mgr.status(m.name)
		rep.Monitors = append(rep.Monitors, MonitorStatus{Name: m.name, Status: st.String(), Active: n, Detail: m.detail()})
	}
	rep.Alerts = e.mgr.activeByFired()
	return rep
}
