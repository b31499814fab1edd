package health

import (
	"math"

	"a4nn/internal/obs"
)

// fold is the run as the monitors read it. Engine.Observe applies each
// journal event to it once; the rows' checks read what it holds. It is
// the package's one switch on an event's type (make lint holds that).
type fold struct {
	plateauWindow     int
	calibrationWindow int
	emitsRuntime      bool // our own runtime samples come back through the journal: not adopted

	models map[string]*curve // in-flight models: an epoch adds one, model_done drops it

	calErrs  []float64 // ring of |predicted − actual| at termination
	calNext  int
	calTotal int

	devTotal   int // devices at run start
	devAlive   int
	stragglers int
	devGens    int // alive devices summed over generation starts

	queueBase, queueMean       float64 // warmup and latest generation mean queue wait
	queueBaseSet, queueMeanSet bool

	quarantined, lost, stale, temps, resumes int
	damage                                   int // quarantines and lost records since the last check

	observed, finished bool // an event arrived; run_end arrived

	adopted bool           // a producer's runtime samples drive the readings
	sample  runtimeReading // the latest of them
	fresh   bool           // sample arrived since the last check
}

func newFold(cfg Config) fold {
	return fold{
		plateauWindow:     cfg.PlateauWindow,
		calibrationWindow: cfg.CalibrationWindow,
		emitsRuntime:      cfg.EmitRuntimeSamples,
		models:            make(map[string]*curve),
		calErrs:           make([]float64, 0, cfg.CalibrationWindow),
	}
}

// curve is one in-flight model's training signal.
type curve struct {
	lastLoss float64
	hasLoss  bool
	streak   int // consecutive epochs with rising loss
	bestAcc  float64
	lastAcc  float64
	nan      bool
	accs     []float64 // the last plateauWindow finite accuracies
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// apply folds one event into the run.
func (f *fold) apply(e obs.Event) {
	f.observed = true
	switch e.Type {
	case obs.EventEpoch:
		if e.Model != "" {
			f.epoch(e)
		}
	case obs.EventModelDone:
		delete(f.models, e.Model)
	case obs.EventRunEnd:
		clear(f.models)
		f.finished = true
	case obs.EventPredictTerminate:
		err := math.Abs(e.Predicted - e.Actual)
		if !finite(err) {
			return
		}
		f.calTotal++
		if len(f.calErrs) < f.calibrationWindow {
			f.calErrs = append(f.calErrs, err)
			return
		}
		f.calErrs[f.calNext] = err
		f.calNext = (f.calNext + 1) % f.calibrationWindow
	case obs.EventRunStart:
		f.devTotal, f.devAlive = e.Devices, e.Devices
	case obs.EventGenerationStart:
		if e.Devices > 0 {
			f.devAlive = e.Devices
			f.devGens += e.Devices
		}
	case obs.EventGenerationEnd:
		if e.Devices > 0 {
			f.devAlive = e.Devices
		}
		// Each generation_end carries the scheduler's mean queue wait, so
		// a follower of another process's journal reads it too.
		if e.Tasks > 0 && f.queueBaseSet {
			f.queueMean, f.queueMeanSet = e.MeanQueueWaitSeconds, true
		} else if e.Tasks > 0 {
			f.queueBase, f.queueBaseSet = e.MeanQueueWaitSeconds, true
		}
	case obs.EventStraggler:
		f.stragglers++
	case obs.EventRecovery:
		switch e.Reason {
		case "stale":
			f.stale++
		case "temp":
			f.temps += e.Count
		case "lost":
			f.lost++
			f.damage++
		default:
			f.quarantined++
			f.damage++
		}
	case obs.EventModelResume:
		f.resumes++
	case obs.EventRuntimeSample:
		if !f.emitsRuntime {
			f.adopted, f.fresh = true, true
			f.sample = runtimeReading{goroutines: e.Goroutines, heapBytes: e.HeapBytes,
				pauseP99: e.GCPauseSec, rssBytes: e.RSSBytes, fds: e.FDs,
				procOK: e.RSSBytes > 0 || e.FDs > 0}
		}
	}
}

// epoch extends a model's curve. A NaN/Inf loss or accuracy marks the
// curve diverged; only finite accuracies enter the plateau window.
func (f *fold) epoch(e obs.Event) {
	c := f.models[e.Model]
	if c == nil {
		c = &curve{}
		f.models[e.Model] = c
	}
	if finite(e.ValAcc) {
		if len(c.accs) == f.plateauWindow {
			c.accs = append(c.accs[:0], c.accs[1:]...) // slide in place: no allocation
		}
		c.accs = append(c.accs, e.ValAcc)
	}
	if !finite(e.ValAcc) || !finite(e.Loss) {
		c.nan = true
		return
	}
	// Loss 0 means the trainer reports no loss (the surrogate);
	// divergence then rests on the accuracy signal alone.
	if e.Loss > 0 {
		if c.hasLoss && e.Loss > c.lastLoss {
			c.streak++
		} else {
			c.streak = 0
		}
		c.lastLoss = e.Loss
		c.hasLoss = true
	}
	c.lastAcc = e.ValAcc
	if e.ValAcc > c.bestAcc {
		c.bestAcc = e.ValAcc
	}
}
