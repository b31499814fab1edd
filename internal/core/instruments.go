package core

import (
	"a4nn/internal/obs"
)

// Instruments bundles the pre-registered metric handles the training
// path updates: per-epoch counters and timing, the last-model accuracy
// gauge, and the prediction engine's stop-epoch / epochs-saved
// accounting. All methods are nil-safe, so an uninstrumented
// Orchestrator pays ~one branch per metric event and allocates nothing.
type Instruments struct {
	epochs      *obs.Counter
	models      *obs.Counter
	epochTime   *obs.Histogram
	accuracy    *obs.Gauge
	stopEpoch   *obs.Histogram
	epochsSaved *obs.Counter
	terminated  *obs.Counter
	savedRate   *obs.Gauge
	bestFitness *obs.Gauge
	paretoSize  *obs.Gauge
}

// NewInstruments registers the training metrics with the observer's
// registry. A nil observer (or one without
// a registry) returns nil, which disables instrumentation.
func NewInstruments(o *obs.Observer) *Instruments {
	reg := o.Registry()
	if reg == nil {
		return nil
	}
	return &Instruments{
		epochs:      reg.Counter("a4nn_train_epochs_total"),
		models:      reg.Counter("a4nn_train_models_total"),
		epochTime:   reg.Histogram("a4nn_train_epoch_sim_seconds", obs.SecondsBuckets),
		accuracy:    reg.Gauge("a4nn_train_last_accuracy_percent"),
		stopEpoch:   reg.Histogram("a4nn_predictor_stop_epoch", obs.EpochBuckets),
		epochsSaved: reg.Counter("a4nn_predictor_epochs_saved_total"),
		terminated:  reg.Counter("a4nn_predictor_terminated_total"),
		savedRate:   reg.Gauge("a4nn_predictor_epochs_saved_rate"),
		bestFitness: reg.Gauge("a4nn_search_best_fitness_percent"),
		paretoSize:  reg.Gauge("a4nn_search_pareto_size"),
	}
}

// observeEpoch books one completed training epoch.
func (ins *Instruments) observeEpoch(simSeconds, valAcc float64) {
	if ins == nil {
		return
	}
	ins.epochs.Inc()
	ins.epochTime.Observe(simSeconds)
	ins.accuracy.Set(valAcc)
}

// observeModel books one completed model training.
func (ins *Instruments) observeModel(out *TrainOutcome, maxEpochs int) {
	if ins == nil {
		return
	}
	ins.models.Inc()
	if out.Terminated {
		ins.terminated.Inc()
		ins.stopEpoch.Observe(float64(out.EpochsTrained))
		ins.epochsSaved.Add(maxEpochs - out.EpochsTrained)
	}
	// Epochs-saved rate: fraction of the epoch budget the predictor
	// avoided spending so far. A gauge (not a derived query) so the
	// history sampler captures its trajectory for the regression
	// monitor and dashboards.
	saved := float64(ins.epochsSaved.Value())
	if spent := float64(ins.epochs.Value()); spent+saved > 0 {
		ins.savedRate.Set(saved / (spent + saved))
	}
}

// observePareto books the current Pareto front: its size and its best
// accuracy, the search-progress trajectory the dashboards backfill
// from history after a reconnect.
func (ins *Instruments) observePareto(front []obs.ParetoPoint) {
	if ins == nil || len(front) == 0 {
		return
	}
	best := front[0].Accuracy
	for _, p := range front[1:] {
		if p.Accuracy > best {
			best = p.Accuracy
		}
	}
	ins.bestFitness.Set(best)
	ins.paretoSize.Set(float64(len(front)))
}
