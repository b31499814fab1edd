package health

import (
	"fmt"
	"math"
	"time"

	"a4nn/internal/obs"
)

// monitor is one row of the engine's table: an in-situ anomaly detector
// that reads the fold (and, for some, the registry or the host). check
// appends its findings as of the cycle's instant now; detail is its
// Report line. Both run under the engine's mutex.
type monitor struct {
	name   string
	check  func(now time.Time, out []finding) []finding
	detail func() string
}

// run appends the row's findings as of now, each stamped with its name.
func (m monitor) run(now time.Time, out []finding) []finding {
	n := len(out)
	out = m.check(now, out)
	for i := n; i < len(out); i++ {
		out[i].Monitor = m.name
	}
	return out
}

// cadence paces work that should happen at most once per interval of
// engine time (a runtime and disk sample, an SLO ring push, a regression
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

// divergence fires critical when a model's training signal turns
// NaN/Inf, its loss rises for DivergenceWindow consecutive epochs, or its
// validation accuracy collapses DivergenceDrop points below the model's
// best. Completed models leave the fold (their alerts resolve through
// flap suppression), so a recovery mid-training resolves the alert — the
// in-situ analogue of "the curve came back".
func (e *Engine) divergence(_ time.Time, out []finding) []finding {
	window, drop := e.cfg.DivergenceWindow, e.cfg.DivergenceDrop
	for id, c := range e.fold.models {
		switch {
		case c.nan:
			out = append(out, finding{Key: id, Severity: SevCritical,
				Message: fmt.Sprintf("model %s: NaN/Inf in training signal", id)})
		case c.streak >= window:
			out = append(out, finding{Key: id, Severity: SevCritical,
				Message: fmt.Sprintf("model %s diverging: loss rising for %d consecutive epochs (%.4g)",
					id, c.streak, c.lastLoss),
				Value: float64(c.streak), Threshold: float64(window)})
		case c.bestAcc > 0 && c.bestAcc-c.lastAcc > drop:
			out = append(out, finding{Key: id, Severity: SevCritical,
				Message: fmt.Sprintf("model %s diverging: val accuracy %.2f%% is %.2f points below its best %.2f%%",
					id, c.lastAcc, c.bestAcc-c.lastAcc, c.bestAcc),
				Value: c.bestAcc - c.lastAcc, Threshold: drop})
		}
	}
	return out
}

func (e *Engine) divergenceDetail() string {
	return fmt.Sprintf("%d models in flight; loss-rise window %d, accuracy-drop threshold %.1f points",
		len(e.fold.models), e.cfg.DivergenceWindow, e.cfg.DivergenceDrop)
}

// --- learning-curve plateau ----------------------------------------------

// plateauEpsilon is the most a plateaued curve's accuracy moves, in
// points, across PlateauWindow epochs.
const plateauEpsilon = 0.05

// plateau reports (info) models whose validation accuracy has moved
// less than plateauEpsilon points across the last PlateauWindow epochs
// — curves the prediction engine should be terminating.
func (e *Engine) plateau(_ time.Time, out []finding) []finding {
	for id, c := range e.fold.models {
		if len(c.accs) < e.cfg.PlateauWindow {
			continue
		}
		lo, hi := c.accs[0], c.accs[0]
		for _, v := range c.accs[1:] {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if hi-lo <= plateauEpsilon {
			out = append(out, finding{Key: id, Severity: SevInfo,
				Message: fmt.Sprintf("model %s plateaued: accuracy moved %.3f points over %d epochs",
					id, hi-lo, e.cfg.PlateauWindow),
				Value: hi - lo, Threshold: plateauEpsilon})
		}
	}
	return out
}

func (e *Engine) plateauDetail() string {
	curves := 0 // models with a finite accuracy yet
	for _, c := range e.fold.models {
		if len(c.accs) > 0 {
			curves++
		}
	}
	return fmt.Sprintf("%d models in flight; flat means < %.2f points over %d epochs",
		curves, plateauEpsilon, e.cfg.PlateauWindow)
}

// --- prediction-engine calibration ---------------------------------------

// calibrationTolerance bounds the prediction engine's rolling mean
// |predicted − actual| at termination, in accuracy points.
const calibrationTolerance float64 = 5

// calibration watches predict_terminate events: the engine's converged
// prediction next to the accuracy actually observed at termination. A
// rolling mean |predicted − actual| above calibrationTolerance means the
// engine is terminating models on bad extrapolations.
func (e *Engine) calibration(_ time.Time, out []finding) []finding {
	if len(e.fold.calErrs) < e.cfg.CalibrationWindow {
		return out
	}
	if mean := e.calibrationMean(); mean > calibrationTolerance {
		out = append(out, finding{Severity: SevWarning,
			Message: fmt.Sprintf("prediction engine miscalibrated: mean |predicted−actual| %.2f points over last %d terminations (tolerance %.2f)",
				mean, e.cfg.CalibrationWindow, calibrationTolerance),
			Value: mean, Threshold: calibrationTolerance})
	}
	return out
}

func (e *Engine) calibrationMean() float64 {
	if len(e.fold.calErrs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range e.fold.calErrs {
		sum += v
	}
	return sum / float64(len(e.fold.calErrs))
}

func (e *Engine) calibrationDetail() string {
	return fmt.Sprintf("%d terminations observed; rolling mean error %.2f points over window %d (tolerance %.2f)",
		e.fold.calTotal, e.calibrationMean(), e.cfg.CalibrationWindow, calibrationTolerance)
}

// --- device-pool degradation ---------------------------------------------

// devices tracks the alive-device count carried by generation events and
// the straggler rate. Lost devices degrade the run (warning); capacity
// below MinCapacity is critical — the search is limping on too few
// accelerators to trust its schedule.
func (e *Engine) devices(_ time.Time, out []finding) []finding {
	f, minCap := &e.fold, e.cfg.MinCapacity
	if f.devTotal > 0 && f.devAlive < f.devTotal {
		capacity := float64(f.devAlive) / float64(f.devTotal)
		sev := SevWarning
		if capacity < minCap {
			sev = SevCritical
		}
		out = append(out, finding{Key: "capacity", Severity: sev,
			Message: fmt.Sprintf("device pool degraded: %d/%d devices alive (capacity %.0f%%, critical below %.0f%%)",
				f.devAlive, f.devTotal, 100*capacity, 100*minCap),
			Value: capacity, Threshold: minCap})
	}
	if f.devGens > 0 {
		if rate := float64(f.stragglers) / float64(f.devGens); rate > e.cfg.StragglerRate {
			out = append(out, finding{Key: "stragglers", Severity: SevWarning,
				Message: fmt.Sprintf("straggler rate %.0f%% of device-generations (threshold %.0f%%)",
					100*rate, 100*e.cfg.StragglerRate),
				Value: rate, Threshold: e.cfg.StragglerRate})
		}
	}
	return out
}

func (e *Engine) devicesDetail() string {
	f := &e.fold
	return fmt.Sprintf("%d/%d devices alive; %d straggler events over %d device-generations",
		f.devAlive, f.devTotal, f.stragglers, f.devGens)
}

// --- queue saturation -----------------------------------------------------

// queueFactor multiplies the warmup baseline; queueMinWait is in
// simulated seconds.
const (
	queueFactor  float64 = 3
	queueMinWait float64 = 1
)

// queue compares each generation's mean queue wait with the first
// generation that ran tasks: above queueFactor × that warmup baseline
// (and the queueMinWait absolute floor), tasks are piling up faster than
// the pool drains them.
func (e *Engine) queue(_ time.Time, out []finding) []finding {
	f := &e.fold
	if f.queueMeanSet && f.queueMean > queueMinWait && f.queueMean > queueFactor*f.queueBase {
		out = append(out, finding{Severity: SevWarning,
			Message: fmt.Sprintf("queue saturated: mean wait %.1fs this generation vs %.1fs warmup baseline (threshold ×%.1f)",
				f.queueMean, f.queueBase, queueFactor),
			Value: f.queueMean, Threshold: queueFactor * f.queueBase})
	}
	return out
}

func (e *Engine) queueDetail() string {
	if !e.fold.queueBaseSet {
		return "no warmup baseline yet"
	}
	return fmt.Sprintf("warmup baseline %.1fs; last generation mean %.1fs", e.fold.queueBase, e.fold.queueMean)
}

// --- journal backpressure ------------------------------------------------

// backpressure watches the journal's own accounting counters: dropped
// events mean slow subscribers are losing data (warning); file errors
// mean the events.jsonl sink itself is failing (critical — the run's
// record of record is incomplete). Each fires on the check that sees its
// counter move.
type backpressure struct {
	dropped, fileErrs         *obs.Counter
	lastDropped, lastFileErrs uint64
}

func (b *backpressure) check(_ time.Time, out []finding) []finding {
	if d := b.dropped.Value(); d > b.lastDropped {
		b.lastDropped = d
		out = append(out, finding{Key: "drops", Severity: SevWarning,
			Message: fmt.Sprintf("event broker dropping to slow subscribers (%d dropped total)", d),
			Value:   float64(d)})
	}
	if fe := b.fileErrs.Value(); fe > b.lastFileErrs {
		b.lastFileErrs = fe
		out = append(out, finding{Key: "file", Severity: SevCritical,
			Message: fmt.Sprintf("event journal file writes failing (%d errors total)", fe),
			Value:   float64(fe)})
	}
	return out
}

func (b *backpressure) detail() string {
	return fmt.Sprintf("%d events dropped, %d journal file errors", b.dropped.Value(), b.fileErrs.Value())
}

// --- crash recovery -------------------------------------------------------

// recovery surfaces crash-recovery activity: quarantined corrupt files
// and lost records warn (the store took damage — worth a human look
// even though the run repaired itself), while checkpoint resumes,
// stale-checkpoint cleanup and orphan temp files swept are normal
// recovery mechanics and only show in the detail. The finding fires on
// the check after the damage and then goes quiet, so the alert resolves
// through flap suppression once recovery stops finding damage.
func (e *Engine) recovery(_ time.Time, out []finding) []finding {
	f := &e.fold
	if f.damage > 0 {
		out = append(out, finding{Key: "damage", Severity: SevWarning,
			Message: fmt.Sprintf("crash recovery quarantined %d corrupt file(s) and found %d lost record(s) — the search repaired itself, but the store took damage",
				f.quarantined, f.lost),
			Value: float64(f.quarantined + f.lost)})
		f.damage = 0
	}
	return out
}

func (e *Engine) recoveryDetail() string {
	f := &e.fold
	if f.quarantined == 0 && f.lost == 0 && f.stale == 0 && f.temps == 0 && f.resumes == 0 {
		return "no recovery activity"
	}
	return fmt.Sprintf("%d quarantined, %d lost records, %d stale checkpoints cleaned, %d orphan temp files removed, %d checkpoint resumes",
		f.quarantined, f.lost, f.stale, f.temps, f.resumes)
}
