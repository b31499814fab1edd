package core

import (
	"context"
	"fmt"
	"time"

	"a4nn/internal/commons"
	"a4nn/internal/lineage"
	"a4nn/internal/obs"
	"a4nn/internal/predict"
	"a4nn/internal/sched"
)

// SnapshotSink receives per-epoch model states; the workflow wires it to
// the data commons. epoch is 1-based.
type SnapshotSink func(id string, epoch int, state []byte) error

// CheckpointSink receives the model's full mid-training progress after
// every epoch; the workflow wires it to commons Store.PutCheckpoint,
// which replaces the model's checkpoint file with it. cp.Epochs and
// cp.InteractionSeconds are the training loop's own slices, which only
// ever grow: a sink that keeps cp must not modify them.
type CheckpointSink func(cp *commons.Checkpoint) error

// TrainStepError marks a failure inside a single training epoch — the
// kind of error (a diverged batch, an OOM on one device) worth retrying
// on different hardware, as opposed to a bad genome or a broken store.
type TrainStepError struct {
	// Epoch is the 1-based epoch that failed.
	Epoch int
	// ID is the lineage record ID of the model being trained.
	ID  string
	Err error
}

func (e *TrainStepError) Error() string {
	return fmt.Sprintf("core: epoch %d of %s: %v", e.Epoch, e.ID, e.Err)
}

func (e *TrainStepError) Unwrap() error { return e.Err }

// Orchestrator runs Algorithm 1 for one model: train an epoch, feed the
// fitness history to the prediction engine, append the prediction, ask
// the analyzer whether predictions converged, and terminate early when
// they have. With a nil engine it degenerates to fixed-budget training —
// the standalone-NAS baseline.
type Orchestrator struct {
	// Engine is the prediction engine; nil disables early termination.
	Engine *predict.Engine
	// MaxEpochs is the NAS's full training budget (Table 2: 25).
	MaxEpochs int
	// Snapshots, when non-nil, receives the model state after every epoch
	// (paper §2.2.2).
	Snapshots SnapshotSink
	// Checkpoint, when non-nil, receives a crash-safe progress checkpoint
	// after every epoch, so a killed run resumes mid-model instead of
	// retraining from epoch 1. Its state is ResumeState's for a
	// Resumable model, SaveState's for any other.
	Checkpoint CheckpointSink
	// ResumeFrom, when non-nil, rehydrates the training loop from a prior
	// run's checkpoint: accounting, the record trail, and the prediction
	// engine's fit state resume where the crash cut them off. The model
	// itself must already be restored (ResumeModel) or replayed to the
	// checkpoint's epoch before TrainModel.
	ResumeFrom *commons.Checkpoint
	// Seed is the seed the model was built with, recorded into
	// checkpoints so a resumed run rebuilds the identical model.
	Seed int64
	// SlowFactor ≥ 1 inflates the simulated per-epoch cost — the
	// scheduler sets it when fault injection marks the device a
	// straggler for this generation. 0 means 1 (no slowdown).
	SlowFactor float64
	// DeadlineSeconds, when > 0, aborts training with a transient
	// sched.ErrDeadline once the accumulated simulated cost exceeds it,
	// so the scheduler can re-dispatch the model to another device.
	DeadlineSeconds float64
	// Obs, when non-nil, receives per-epoch and per-model metric events;
	// nil disables instrumentation at the cost of one branch per event.
	Obs *Instruments
}

// TrainOutcome summarises one model's training.
type TrainOutcome struct {
	// FinalFitness is Algorithm 1's return value: the converged
	// prediction on early termination, else the last observed fitness.
	FinalFitness float64
	// EpochsTrained is the paper's e_t when Terminated, else MaxEpochs.
	EpochsTrained int
	Terminated    bool
	// SimSeconds is the summed simulated epoch cost on the device.
	SimSeconds float64
	// EngineSeconds is the real (measured) time spent inside the
	// prediction engine, the overhead of §4.3.1.
	EngineSeconds float64
	// Interactions counts prediction-engine invocations.
	Interactions int
	// InteractionSeconds holds each invocation's measured duration.
	InteractionSeconds []float64
}

// recID names a record in error messages, tolerating the nil record
// TrainModel accepts.
func recID(rec *lineage.Record) string {
	if rec == nil {
		return "<unrecorded>"
	}
	return rec.ID
}

// TrainModel trains one model under Algorithm 1 on the given device,
// filling rec (which must have its identity fields set) with the per-epoch
// record trail. samples is the training-set size for the epoch cost model.
//
// ctx is checked between epochs, so cancellation stops in-flight training
// promptly rather than only between tasks. On a deadline abort the
// partial outcome is returned alongside the transient error so the
// scheduler can account for the lost simulated time.
func (o *Orchestrator) TrainModel(ctx context.Context, m Trainable, dev sched.Device, samples int, rec *lineage.Record) (*TrainOutcome, error) {
	if o.MaxEpochs < 1 {
		return nil, fmt.Errorf("core: MaxEpochs must be ≥ 1, got %d", o.MaxEpochs)
	}
	if m == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	epochCost := dev.EpochCost(m.FLOPs(), samples)
	if o.SlowFactor > 1 {
		epochCost *= o.SlowFactor
	}
	var evModel string
	var evGen int
	if rec != nil {
		evModel, evGen = rec.ID, rec.Generation
	}
	var tracker *predict.Tracker
	if o.Engine != nil {
		tracker = predict.NewTracker(o.Engine)
		tracker.Label, tracker.Gen = evModel, evGen
	}
	out := &TrainOutcome{}
	lastVal := 0.0
	start := 1
	resumedSim := 0.0
	if cp := o.ResumeFrom; cp != nil {
		// Rehydrate the loop state the crash cut off: accounting totals,
		// the record's epoch trail, and the prediction engine's H/P fit
		// state, then continue from the next epoch. A checkpoint taken at
		// the convergence epoch resumes straight to the final fitness.
		out.SimSeconds = cp.SimSeconds
		out.EpochsTrained = cp.Epoch
		out.EngineSeconds = cp.EngineSeconds
		out.Interactions = cp.Interactions
		out.InteractionSeconds = append([]float64(nil), cp.InteractionSeconds...)
		resumedSim = cp.SimSeconds
		if h := cp.History(); len(h) > 0 {
			lastVal = h[len(h)-1]
		}
		if tracker != nil {
			p, predEpochs := cp.Predictions()
			tracker.Restore(cp.History(), p, predEpochs, cp.Terminated)
		}
		if rec != nil {
			rec.Epochs = append([]lineage.EpochEntry(nil), cp.Epochs...)
		}
		start = cp.Epoch + 1
		if cp.Terminated && tracker != nil {
			out.Terminated = true
			start = o.MaxEpochs + 1 // nothing left to train
		}
		o.Obs.events().Emit(obs.Event{
			Type:  obs.EventModelResume,
			Gen:   evGen,
			Model: evModel,
			Epoch: cp.Epoch,
		})
	}
	for e := start; e <= o.MaxEpochs; e++ {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("core: training %s canceled at epoch %d: %w", recID(rec), e, err)
		}
		// The epoch span measures the real epoch duration (training plus
		// any prediction-engine interaction); the simulated cost travels
		// in the epoch event. With no tracer in ctx this is free.
		_, espan := obs.StartSpan(ctx, obs.SpanEpoch)
		espan.SetInt("epoch", e)
		metrics, err := m.TrainEpoch()
		if err != nil {
			espan.SetAttr("error", err.Error())
			espan.End()
			return out, &TrainStepError{Epoch: e, ID: recID(rec), Err: err}
		}
		out.SimSeconds += epochCost
		out.EpochsTrained = e
		lastVal = metrics.ValAccuracy
		// A straggler past its deadline gives the work back to the
		// scheduler for re-dispatch instead of dragging the generation
		// barrier — nothing has been committed to the record store yet.
		if o.DeadlineSeconds > 0 && out.SimSeconds-resumedSim > o.DeadlineSeconds {
			espan.SetAttr("error", "deadline")
			espan.End()
			return out, sched.Transient("deadline",
				fmt.Errorf("core: %s at epoch %d: %.1f sim-seconds over %.1f: %w",
					recID(rec), e, out.SimSeconds, o.DeadlineSeconds, sched.ErrDeadline))
		}
		entry := lineage.EpochEntry{
			Epoch:         e,
			TrainLoss:     metrics.TrainLoss,
			TrainAccuracy: metrics.TrainAccuracy,
			ValAccuracy:   metrics.ValAccuracy,
			SimSeconds:    epochCost,
		}

		converged := false
		if tracker != nil {
			start := time.Now()
			nPred := len(tracker.P)
			converged = tracker.Observe(metrics.ValAccuracy)
			d := time.Since(start).Seconds()
			out.EngineSeconds += d
			out.Interactions++
			out.InteractionSeconds = append(out.InteractionSeconds, d)
			if len(tracker.P) > nPred {
				entry.Prediction = tracker.P[len(tracker.P)-1]
				entry.HasPrediction = true
			}
		}
		espan.End()
		o.Obs.observeEpoch(epochCost, metrics.ValAccuracy)
		o.Obs.events().Emit(obs.Event{
			Type:       obs.EventEpoch,
			Gen:        evGen,
			Model:      evModel,
			Epoch:      e,
			ValAcc:     metrics.ValAccuracy,
			Loss:       metrics.TrainLoss,
			SimSeconds: epochCost,
		})
		if rec != nil {
			rec.Epochs = append(rec.Epochs, entry)
		}
		if o.Snapshots != nil && rec != nil {
			state, err := m.SaveState()
			if err == nil {
				err = o.Snapshots(rec.ID, e, state)
			}
			if err != nil {
				return out, fmt.Errorf("core: store snapshot %s@%d: %w", rec.ID, e, err)
			}
		}
		if o.Checkpoint != nil && rec != nil {
			save := m.SaveState
			if rs, ok := m.(Resumable); ok {
				save = rs.ResumeState
			}
			state, err := save()
			if err != nil {
				return out, fmt.Errorf("core: checkpoint state %s@%d: %w", rec.ID, e, err)
			}
			cp := &commons.Checkpoint{
				ID:                 rec.ID,
				Genome:             rec.Genome,
				Generation:         rec.Generation,
				Seed:               o.Seed,
				Epoch:              e,
				Terminated:         converged,
				State:              state,
				StateDigest:        commons.StateDigest(state),
				Epochs:             rec.Epochs,
				SimSeconds:         out.SimSeconds,
				EngineSeconds:      out.EngineSeconds,
				Interactions:       out.Interactions,
				InteractionSeconds: out.InteractionSeconds,
				SavedAt:            time.Now(),
			}
			if err := o.Checkpoint(cp); err != nil {
				return out, fmt.Errorf("core: checkpoint %s@%d: %w", rec.ID, e, err)
			}
		}
		if converged {
			out.Terminated = true
			break
		}
	}

	// Lines 17–21 of Algorithm 1.
	if out.Terminated {
		if f, ok := tracker.FinalFitness(); ok {
			out.FinalFitness = f
		}
		// The event of record for the paper's headline mechanism: the
		// engine's converged prediction next to the accuracy actually
		// observed at the termination epoch.
		o.Obs.events().Emit(obs.Event{
			Type:        obs.EventPredictTerminate,
			Gen:         evGen,
			Model:       evModel,
			Predicted:   out.FinalFitness,
			Actual:      lastVal,
			Epochs:      out.EpochsTrained,
			SavedEpochs: o.MaxEpochs - out.EpochsTrained,
		})
	} else {
		out.FinalFitness = lastVal
	}
	if rec != nil {
		rec.Terminated = out.Terminated
		if out.Terminated {
			rec.TerminationEpoch = len(rec.Epochs)
		}
		rec.FinalFitness = out.FinalFitness
	}
	o.Obs.observeModel(out, o.MaxEpochs)
	o.Obs.events().Emit(obs.Event{
		Type:       obs.EventModelDone,
		Gen:        evGen,
		Model:      evModel,
		Fitness:    out.FinalFitness,
		Epochs:     out.EpochsTrained,
		Terminated: out.Terminated,
		SimSeconds: out.SimSeconds,
	})
	return out, nil
}
