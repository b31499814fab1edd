package health

import (
	"fmt"
	"math"
	"time"

	"a4nn/internal/obs"
)

// monitor is one in-situ anomaly detector. observe feeds it a journal
// event; check appends its findings as of the cycle's instant now. Both
// run under the engine's mutex, single-threaded, so monitors keep plain
// state.
type monitor interface {
	name() string
	observe(e obs.Event)
	check(now time.Time, out []finding) []finding
	detail() string
}

// cadence paces work that should happen at most once per interval of
// engine time (a runtime or disk sample, an SLO ring push, a regression
// evaluation). The first call is always due.
type cadence struct {
	every time.Duration
	last  time.Time
}

// due reports whether every has passed since the last due instant, and
// if so makes now the last one.
func (c *cadence) due(now time.Time) bool {
	if !c.last.IsZero() && now.Sub(c.last) < c.every {
		return false
	}
	c.last = now
	return true
}

// --- training divergence -------------------------------------------------

// divState tracks one in-flight model's training signal.
type divState struct {
	lastLoss float64
	hasLoss  bool
	streak   int // consecutive epochs with rising loss
	bestAcc  float64
	lastAcc  float64
	nan      bool
}

// divergence fires critical when a model's training signal turns
// NaN/Inf, its loss rises for Window consecutive epochs, or its
// validation accuracy collapses Drop points below the model's best.
// Completed models are forgotten (their alerts resolve through flap
// suppression), so a recovery mid-training resolves the alert — the
// in-situ analogue of "the curve came back".
type divergence struct {
	window int
	drop   float64
	models map[string]*divState
}

func newDivergence(cfg Config) *divergence {
	return &divergence{window: cfg.DivergenceWindow, drop: cfg.DivergenceDrop, models: make(map[string]*divState)}
}

func (d *divergence) name() string { return "divergence" }

func (d *divergence) observe(e obs.Event) {
	switch e.Type {
	case obs.EventEpoch:
		if e.Model == "" {
			return
		}
		st := d.models[e.Model]
		if st == nil {
			st = &divState{}
			d.models[e.Model] = st
		}
		bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
		if bad(e.ValAcc) || bad(e.Loss) {
			st.nan = true
			return
		}
		// Loss 0 means the trainer reports no loss (the surrogate);
		// divergence then rests on the accuracy signal alone.
		if e.Loss > 0 {
			if st.hasLoss && e.Loss > st.lastLoss {
				st.streak++
			} else {
				st.streak = 0
			}
			st.lastLoss = e.Loss
			st.hasLoss = true
		}
		st.lastAcc = e.ValAcc
		if e.ValAcc > st.bestAcc {
			st.bestAcc = e.ValAcc
		}
	case obs.EventModelDone:
		delete(d.models, e.Model)
	case obs.EventRunEnd:
		d.models = make(map[string]*divState)
	}
}

func (d *divergence) check(_ time.Time, out []finding) []finding {
	for id, st := range d.models {
		switch {
		case st.nan:
			out = append(out, finding{
				Monitor: d.name(), Key: id, Severity: SevCritical,
				Message: fmt.Sprintf("model %s: NaN/Inf in training signal", id),
			})
		case st.streak >= d.window:
			out = append(out, finding{
				Monitor: d.name(), Key: id, Severity: SevCritical,
				Message: fmt.Sprintf("model %s diverging: loss rising for %d consecutive epochs (%.4g)",
					id, st.streak, st.lastLoss),
				Value: float64(st.streak), Threshold: float64(d.window),
			})
		case st.bestAcc > 0 && st.bestAcc-st.lastAcc > d.drop:
			out = append(out, finding{
				Monitor: d.name(), Key: id, Severity: SevCritical,
				Message: fmt.Sprintf("model %s diverging: val accuracy %.2f%% is %.2f points below its best %.2f%%",
					id, st.lastAcc, st.bestAcc-st.lastAcc, st.bestAcc),
				Value: st.bestAcc - st.lastAcc, Threshold: d.drop,
			})
		}
	}
	return out
}

func (d *divergence) detail() string {
	return fmt.Sprintf("%d models in flight; loss-rise window %d, accuracy-drop threshold %.1f points",
		len(d.models), d.window, d.drop)
}

// --- learning-curve plateau ----------------------------------------------

// plateauEpsilon is the most a plateaued curve's accuracy moves, in
// points, across PlateauWindow epochs.
const plateauEpsilon = 0.05

// plateau reports (info) models whose validation accuracy has moved
// less than plateauEpsilon points across the last PlateauWindow epochs
// — curves the prediction engine should be terminating.
type plateau struct {
	window int
	models map[string][]float64 // rolling acc window per in-flight model
}

func newPlateau(cfg Config) *plateau {
	return &plateau{window: cfg.PlateauWindow, models: make(map[string][]float64)}
}

func (p *plateau) name() string { return "plateau" }

func (p *plateau) observe(e obs.Event) {
	switch e.Type {
	case obs.EventEpoch:
		if e.Model == "" || math.IsNaN(e.ValAcc) || math.IsInf(e.ValAcc, 0) {
			return
		}
		w := append(p.models[e.Model], e.ValAcc)
		if len(w) > p.window {
			w = w[len(w)-p.window:]
		}
		p.models[e.Model] = w
	case obs.EventModelDone:
		delete(p.models, e.Model)
	case obs.EventRunEnd:
		p.models = make(map[string][]float64)
	}
}

func (p *plateau) check(_ time.Time, out []finding) []finding {
	for id, w := range p.models {
		if len(w) < p.window {
			continue
		}
		lo, hi := w[0], w[0]
		for _, v := range w[1:] {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if hi-lo <= plateauEpsilon {
			out = append(out, finding{
				Monitor: p.name(), Key: id, Severity: SevInfo,
				Message: fmt.Sprintf("model %s plateaued: accuracy moved %.3f points over %d epochs",
					id, hi-lo, p.window),
				Value: hi - lo, Threshold: plateauEpsilon,
			})
		}
	}
	return out
}

func (p *plateau) detail() string {
	return fmt.Sprintf("%d models in flight; flat means < %.2f points over %d epochs",
		len(p.models), plateauEpsilon, p.window)
}

// --- prediction-engine calibration ---------------------------------------

// calibrationTolerance bounds the prediction engine's rolling mean
// |predicted − actual| at termination, in accuracy points.
const calibrationTolerance float64 = 5

// calibration watches predict_terminate events: the engine's converged
// prediction next to the accuracy actually observed at termination. A
// rolling mean |predicted − actual| above calibrationTolerance means the
// engine is terminating models on bad extrapolations.
type calibration struct {
	window int
	errs   []float64 // rolling ring
	next   int
	filled bool
	total  int
}

func newCalibration(cfg Config) *calibration {
	return &calibration{window: cfg.CalibrationWindow, errs: make([]float64, 0, cfg.CalibrationWindow)}
}

func (c *calibration) name() string { return "calibration" }

func (c *calibration) observe(e obs.Event) {
	if e.Type != obs.EventPredictTerminate {
		return
	}
	err := math.Abs(e.Predicted - e.Actual)
	if math.IsNaN(err) || math.IsInf(err, 0) {
		return
	}
	c.total++
	if len(c.errs) < c.window {
		c.errs = append(c.errs, err)
		c.filled = len(c.errs) == c.window
		return
	}
	c.errs[c.next] = err
	c.next = (c.next + 1) % c.window
}

func (c *calibration) mean() float64 {
	if len(c.errs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range c.errs {
		sum += v
	}
	return sum / float64(len(c.errs))
}

func (c *calibration) check(_ time.Time, out []finding) []finding {
	if !c.filled {
		return out
	}
	if mean := c.mean(); mean > calibrationTolerance {
		out = append(out, finding{
			Monitor: c.name(), Severity: SevWarning,
			Message: fmt.Sprintf("prediction engine miscalibrated: mean |predicted−actual| %.2f points over last %d terminations (tolerance %.2f)",
				mean, c.window, calibrationTolerance),
			Value: mean, Threshold: calibrationTolerance,
		})
	}
	return out
}

func (c *calibration) detail() string {
	return fmt.Sprintf("%d terminations observed; rolling mean error %.2f points over window %d (tolerance %.2f)",
		c.total, c.mean(), c.window, calibrationTolerance)
}

// --- device-pool degradation ---------------------------------------------

// devicepool tracks the alive-device count carried by generation
// events and the straggler rate. Lost devices degrade the run
// (warning); capacity below MinCapacity is critical — the search is
// limping on too few accelerators to trust its schedule.
type devicepool struct {
	minCapacity   float64
	stragglerRate float64

	total      int // devices at run start
	alive      int
	stragglers int
	devGens    int // alive devices summed over generation starts
}

func newDevicepool(cfg Config) *devicepool {
	return &devicepool{minCapacity: cfg.MinCapacity, stragglerRate: cfg.StragglerRate}
}

func (dp *devicepool) name() string { return "devices" }

func (dp *devicepool) observe(e obs.Event) {
	switch e.Type {
	case obs.EventRunStart:
		dp.total = e.Devices
		dp.alive = e.Devices
	case obs.EventGenerationStart:
		if e.Devices > 0 {
			dp.alive = e.Devices
			dp.devGens += e.Devices
		}
	case obs.EventGenerationEnd:
		if e.Devices > 0 {
			dp.alive = e.Devices
		}
	case obs.EventStraggler:
		dp.stragglers++
	}
}

func (dp *devicepool) check(_ time.Time, out []finding) []finding {
	if dp.total > 0 && dp.alive < dp.total {
		capacity := float64(dp.alive) / float64(dp.total)
		sev := SevWarning
		if capacity < dp.minCapacity {
			sev = SevCritical
		}
		out = append(out, finding{
			Monitor: dp.name(), Key: "capacity", Severity: sev,
			Message: fmt.Sprintf("device pool degraded: %d/%d devices alive (capacity %.0f%%, critical below %.0f%%)",
				dp.alive, dp.total, 100*capacity, 100*dp.minCapacity),
			Value: capacity, Threshold: dp.minCapacity,
		})
	}
	if dp.devGens > 0 {
		rate := float64(dp.stragglers) / float64(dp.devGens)
		if rate > dp.stragglerRate {
			out = append(out, finding{
				Monitor: dp.name(), Key: "stragglers", Severity: SevWarning,
				Message: fmt.Sprintf("straggler rate %.0f%% of device-generations (threshold %.0f%%)",
					100*rate, 100*dp.stragglerRate),
				Value: rate, Threshold: dp.stragglerRate,
			})
		}
	}
	return out
}

func (dp *devicepool) detail() string {
	return fmt.Sprintf("%d/%d devices alive; %d straggler events over %d device-generations",
		dp.alive, dp.total, dp.stragglers, dp.devGens)
}

// --- queue saturation -----------------------------------------------------

// queueFactor multiplies the warmup baseline; queueMinWait is in
// simulated seconds.
const (
	queueFactor  float64 = 3
	queueMinWait float64 = 1
)

// queuewait samples the scheduler's queue-wait histogram from the
// registry. The first generation establishes the warmup baseline; a
// later generation whose mean wait exceeds queueFactor × baseline (and
// the queueMinWait absolute floor) means tasks are piling up faster
// than the pool drains them.
type queuewait struct {
	hist *obs.Histogram

	baseMean  float64
	baseSet   bool
	lastCount uint64
	lastSum   float64
	genMean   float64 // mean wait across the most recent generation
	genSet    bool
}

func newQueuewait(reg *obs.Registry) *queuewait {
	return &queuewait{hist: reg.Histogram("a4nn_sched_queue_wait_sim_seconds", obs.SecondsBuckets)}
}

func (q *queuewait) name() string { return "queue" }

func (q *queuewait) observe(e obs.Event) {
	if e.Type != obs.EventGenerationEnd {
		return
	}
	count, sum := q.hist.Count(), q.hist.Sum()
	dc := count - q.lastCount
	if dc == 0 {
		return
	}
	mean := (sum - q.lastSum) / float64(dc)
	q.lastCount, q.lastSum = count, sum
	if !q.baseSet {
		q.baseMean = mean
		q.baseSet = true
		return
	}
	q.genMean = mean
	q.genSet = true
}

func (q *queuewait) check(_ time.Time, out []finding) []finding {
	if !q.baseSet || !q.genSet {
		return out
	}
	if q.genMean > queueMinWait && q.genMean > queueFactor*q.baseMean {
		out = append(out, finding{
			Monitor: q.name(), Severity: SevWarning,
			Message: fmt.Sprintf("queue saturated: mean wait %.1fs this generation vs %.1fs warmup baseline (threshold ×%.1f)",
				q.genMean, q.baseMean, queueFactor),
			Value: q.genMean, Threshold: queueFactor * q.baseMean,
		})
	}
	return out
}

func (q *queuewait) detail() string {
	if !q.baseSet {
		return "no warmup baseline yet"
	}
	return fmt.Sprintf("warmup baseline %.1fs; last generation mean %.1fs", q.baseMean, q.genMean)
}

// --- journal/broker backpressure -----------------------------------------

// backpressure watches the journal's own accounting counters: dropped
// events mean slow subscribers are losing data (warning); file errors
// mean the events.jsonl sink itself is failing (critical — the run's
// record of record is incomplete).
type backpressure struct {
	dropped  *obs.Counter
	fileErrs *obs.Counter

	lastDropped  uint64
	lastFileErrs uint64
	dropFresh    bool
	fileFresh    bool
}

func newBackpressure(reg *obs.Registry) *backpressure {
	return &backpressure{
		dropped:  reg.Counter("a4nn_events_dropped_total"),
		fileErrs: reg.Counter("a4nn_events_file_errors_total"),
	}
}

func (b *backpressure) name() string { return "backpressure" }

func (b *backpressure) observe(obs.Event) {}

func (b *backpressure) check(_ time.Time, out []finding) []finding {
	if d := b.dropped.Value(); d > b.lastDropped {
		b.lastDropped = d
		b.dropFresh = true
	} else {
		b.dropFresh = false
	}
	if b.dropFresh {
		out = append(out, finding{
			Monitor: b.name(), Key: "drops", Severity: SevWarning,
			Message: fmt.Sprintf("event broker dropping to slow subscribers (%d dropped total)", b.lastDropped),
			Value:   float64(b.lastDropped),
		})
	}
	if fe := b.fileErrs.Value(); fe > b.lastFileErrs {
		b.lastFileErrs = fe
		b.fileFresh = true
	} else {
		b.fileFresh = false
	}
	if b.fileFresh {
		out = append(out, finding{
			Monitor: b.name(), Key: "file", Severity: SevCritical,
			Message: fmt.Sprintf("event journal file writes failing (%d errors total)", b.lastFileErrs),
			Value:   float64(b.lastFileErrs),
		})
	}
	return out
}

func (b *backpressure) detail() string {
	return fmt.Sprintf("%d events dropped, %d journal file errors", b.dropped.Value(), b.fileErrs.Value())
}
