package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"a4nn/internal/chaos"
	"a4nn/internal/commons"
	"a4nn/internal/genome"
	"a4nn/internal/lineage"
	"a4nn/internal/nn"
	"a4nn/internal/obs"
	"a4nn/internal/predict"
	"a4nn/internal/sched"
)

// runner holds the state shared by every generation of a search: its
// configuration, the device pool, the prediction engine, accounting, and
// the train-or-replay task logic.
type runner[G Arch] struct {
	cfg ConfigOf[G]
	// replayFrom is where finished models replay from: cfg.ReplayFrom,
	// or the run's own store under Resume; nil trains everything.
	replayFrom *commons.Store

	pool         *sched.Pool
	engine       *predict.Engine
	engineParams *lineage.EngineParams
	// journaled is the fold of the resumed run's journal.
	journaled   map[string]ModelProgress
	instruments *Instruments
	journal     *obs.Journal

	mu              sync.Mutex
	res             *Result
	interactionSecs []float64
}

// macroOf returns g itself when it is a macro-space genome and nil for
// any other space. The lineage format is macro-specific in one field —
// a bit-string encoding does not parse back without NodesPerPhase — and
// ModelResult.Genome hands the genome to the analyzer.
func macroOf(g any) *genome.Genome {
	m, _ := g.(*genome.Genome)
	return m
}

// newRunner assembles the runner of a validated configuration.
func newRunner[G Arch](cfg ConfigOf[G]) (*runner[G], error) {
	pool, err := sched.NewPool(cfg.Devices, sched.DefaultThroughput)
	if err != nil {
		return nil, err
	}
	if err := pool.SetFaultPlan(cfg.Faults); err != nil {
		return nil, err
	}
	if err := pool.SetRetryPolicy(cfg.Retry); err != nil {
		return nil, err
	}
	if err := pool.SetTaskDeadline(cfg.TaskTimeoutSeconds); err != nil {
		return nil, err
	}
	pool.SetObserver(cfg.Obs)
	r := &runner[G]{
		cfg:         cfg,
		replayFrom:  cfg.ReplayFrom,
		pool:        pool,
		res:         &Result{},
		instruments: NewInstruments(cfg.Obs),
		journal:     cfg.Obs.Journal(),
	}
	if cfg.Resume {
		r.replayFrom = cfg.Store
	}
	if cfg.Engine != nil {
		engine, err := predict.NewEngine(*cfg.Engine)
		if err != nil {
			return nil, err
		}
		if reg := cfg.Obs.Registry(); reg != nil {
			engine.SetMetrics(predict.Metrics{
				Predictions:  reg.Counter("a4nn_predict_predictions_total"),
				FitFailures:  reg.Counter("a4nn_predict_fit_failures_total"),
				Convergences: reg.Counter("a4nn_predict_convergences_total"),
				Events:       cfg.Obs.Journal(),
			})
		}
		r.engine = engine
		r.engineParams = &lineage.EngineParams{
			Family:     cfg.Engine.Family.Name(),
			CMin:       cfg.Engine.CMin,
			EPred:      cfg.Engine.EPred,
			N:          cfg.Engine.N,
			R:          cfg.Engine.R,
			MinFitness: cfg.Engine.MinFitness,
			MaxFitness: cfg.Engine.MaxFitness,
		}
	}
	return r, nil
}

// classifyTaskError decides whether a failed attempt is worth retrying on
// another device. Failures inside a training step are transient (the
// paper-scale analogue of a diverged batch or a device OOM); everything
// else — bad genomes, broken stores, cancellation — is fatal.
func classifyTaskError(err error) error {
	if sched.IsTransient(err) {
		return err // deadline aborts arrive pre-wrapped
	}
	var step *TrainStepError
	if errors.As(err, &step) {
		return sched.Transient("train step", err)
	}
	return err
}

// evaluateGeneration trains (or replays) one generation of candidates
// across the pool and returns the NSGA objective vectors.
func (r *runner[G]) evaluateGeneration(ctx context.Context, gen int, cands []G) ([][]float64, error) {
	tasks := make([]sched.Task, len(cands))
	results := make([]*ModelResult, len(cands))
	for i, g := range cands {
		hash, encoding := g.Hash(), g.String()
		tasks[i] = func(tc sched.TaskCtx) (float64, error) {
			dev := tc.Dev
			recID := fmt.Sprintf("%s-g%02d-i%02d", hash, gen, i)
			if r.replayFrom != nil {
				rec, err := r.replayFrom.GetRecord(recID)
				if err == nil && rec.Genome == encoding {
					mr := r.modelResult(g, rec, rec.FinalFitness)
					r.mu.Lock()
					results[i] = mr
					r.res.TotalEpochs += rec.EpochsTrained()
					if rec.Terminated {
						r.res.TerminatedEarly++
					}
					r.res.Replayed++
					r.mu.Unlock()
					if r.cfg.OnModel != nil {
						r.cfg.OnModel(mr)
					}
					return rec.SimSeconds(), nil
				}
				if err != nil && errors.Is(err, commons.ErrCorrupt) && r.cfg.Resume {
					// A torn record can't be replayed; move it aside so the
					// retrained model's record can commit in its place.
					r.quarantine(r.replayFrom.QuarantineRecord, recID, "record", err)
				}
			}
			// The virtual device participates in the seed: training the
			// same genome on a different accelerator is a different
			// stochastic realisation, which is how the paper's 1- vs 4-GPU
			// runs come to differ in epoch savings (§4.3.2). Which
			// executor goroutine trains the model does not: on one device
			// the seed is fixed however many run at once.
			freshSeed := r.cfg.NAS.Seed*1_000_003 + int64(gen)*10_007 + int64(i)*101 + int64(dev.ID)
			seed := freshSeed
			// A model that crashed mid-training continues from the crash
			// instead of restarting, reproducing the fault-free trajectory
			// exactly; a checkpoint file supplies its original seed. Only
			// a first attempt resumes: a retry's progress is its own failed
			// attempt's, which a plain run would not continue either.
			var resumeCp *commons.Checkpoint
			resuming := r.cfg.Resume && r.cfg.Checkpoints && tc.Attempt == 1
			if resuming {
				cp, err := r.cfg.Store.GetCheckpoint(recID)
				switch {
				case err == nil && cp.Genome == encoding && cp.Epoch <= r.cfg.MaxEpochs:
					resumeCp = cp
					seed = cp.Seed
				case errors.Is(err, commons.ErrCorrupt):
					r.quarantine(r.cfg.Store.QuarantineCheckpoint, recID, "checkpoint", err)
				}
			}
			model, err := r.cfg.Trainer.NewModel(g, seed)
			if err != nil {
				return 0, fmt.Errorf("core: build model for %s: %w", hash, err)
			}
			// However the attempt ends, its model's scratch goes back to
			// the workspace for the next candidate; model is read at
			// return, so a rebuilt model is the one released.
			defer func() { release(model) }()
			_, resumable := model.(Resumable)
			switch {
			case resuming && !resumable:
				// A model with no state of its own to restore keeps no
				// checkpoint file: its journaled epochs are replayed and
				// verified instead. A file an older build wrote for it is
				// superseded by the journal beside it; one this best-effort
				// delete misses is stale once the record commits, and
				// recovery removes it then.
				r.cfg.Store.DeleteCheckpoint(recID)
				resumeCp = nil
				if chain := r.journaled[recID].Epochs; len(chain) > 0 && len(chain) <= r.cfg.MaxEpochs {
					resumeCp, err = replayJournal(model, r.cfg.Engine, dev, r.cfg.Trainer.TrainSamples(), chain)
				}
			case resumeCp != nil:
				if err = ResumeModel(model, resumeCp); err != nil {
					// The checkpointed state can't be trusted (a digest
					// mismatch or restore failure).
					r.quarantine(r.cfg.Store.QuarantineCheckpoint, recID, "checkpoint", err)
				}
			}
			if err != nil || resumeCp == nil && seed != freshSeed {
				// Train fresh with this attempt's own seed.
				resumeCp, seed = nil, freshSeed
				release(model)
				if model, err = r.cfg.Trainer.NewModel(g, seed); err != nil {
					return 0, fmt.Errorf("core: rebuild model for %s: %w", hash, err)
				}
			}
			rec := &lineage.Record{
				ID:           recID,
				Genome:       encoding,
				Generation:   gen,
				Architecture: model.Describe(),
				NumParams:    model.NumParams(),
				FLOPs:        model.FLOPs(),
				Beam:         r.cfg.Beam,
				DeviceID:     dev.ID,
				Attempt:      tc.Attempt,
				Engine:       r.engineParams,
				CreatedAt:    time.Now(),
			}
			if m := macroOf(g); m != nil {
				rec.NodesPerPhase = m.NodesPerPhase
			}
			if tc.SlowFactor > 1 {
				rec.SlowFactor = tc.SlowFactor
			}
			orch := &Orchestrator{
				Engine:          r.engine,
				MaxEpochs:       r.cfg.MaxEpochs,
				SlowFactor:      tc.SlowFactor,
				DeadlineSeconds: tc.DeadlineSeconds,
				Obs:             r.instruments,
				Seed:            seed,
				ResumeFrom:      resumeCp,
			}
			if r.cfg.Store != nil && r.cfg.SnapshotEpochs {
				orch.Snapshots = r.cfg.Store.PutSnapshot
			}
			if r.cfg.Store != nil && r.cfg.Checkpoints && resumable {
				orch.Checkpoint = r.cfg.Store.PutCheckpoint
			}
			outcome, err := orch.TrainModel(tc.Ctx, model, dev, r.cfg.Trainer.TrainSamples(), rec)
			if err != nil {
				// Nothing has been committed for this attempt; report the
				// partial simulated cost so the scheduler can account for
				// the lost time, and classify for retry.
				cost := 0.0
				if outcome != nil {
					cost = outcome.SimSeconds
				}
				return cost, classifyTaskError(err)
			}
			if r.cfg.Store != nil {
				if err := r.cfg.Store.PutRecord(rec); err != nil {
					return outcome.SimSeconds, err
				}
				if err := chaos.Point(chaos.PointModelPostRecord); err != nil {
					// The record is committed; a relaunch replays it, so the
					// stale checkpoint below is cleaned up by recovery.
					return outcome.SimSeconds, err
				}
				if orch.Checkpoint != nil {
					// Best effort: a leftover checkpoint for a committed
					// record is detected as stale and removed by recovery.
					r.cfg.Store.DeleteCheckpoint(recID)
				}
			}
			mr := r.modelResult(g, rec, outcome.FinalFitness)
			r.mu.Lock()
			results[i] = mr
			r.res.TotalEpochs += outcome.EpochsTrained
			if outcome.Terminated {
				r.res.TerminatedEarly++
			}
			if resumeCp != nil {
				r.res.Resumed++
			}
			r.res.Overhead.TotalSeconds += outcome.EngineSeconds
			r.res.Overhead.Interactions += outcome.Interactions
			r.interactionSecs = append(r.interactionSecs, outcome.InteractionSeconds...)
			r.mu.Unlock()
			if r.cfg.OnModel != nil {
				r.cfg.OnModel(mr)
			}
			return outcome.SimSeconds, nil
		}
	}
	r.mu.Lock()
	replayedBefore := r.res.Replayed
	r.mu.Unlock()
	// Under a shared fleet, the gate blocks here until this search wins
	// its fair-share slots; the release at the generation barrier is the
	// only preemption point, so the pool's deterministic schedule (and
	// the search's results) are exactly the ungated ones.
	if r.cfg.Gate != nil {
		release, err := r.cfg.Gate(ctx, gen, len(cands))
		if err != nil {
			return nil, err
		}
		defer release()
	}
	if _, err := r.pool.RunGeneration(ctx, tasks); err != nil {
		return nil, err
	}
	// Every record of the generation is durable; a crash at this point —
	// after the training barrier, before the NAS advances — is the
	// cheapest to recover (pure replay), and the soak harness exercises
	// it explicitly.
	if err := chaos.Point(chaos.PointGenerationCommit); err != nil {
		return nil, err
	}
	objs := make([][]float64, len(cands))
	r.mu.Lock()
	if r.res.Replayed-replayedBefore == len(cands) {
		r.res.GenerationsReplayed++
	}
	for i, mr := range results {
		r.res.Models = append(r.res.Models, mr)
		objs[i] = []float64{100 - mr.Fitness, mr.MFLOPs}
	}
	var front []obs.ParetoPoint
	if r.journal != nil {
		front = r.paretoFrontLocked()
	}
	r.mu.Unlock()
	if front != nil {
		r.instruments.observePareto(front)
		r.journal.Emit(obs.Event{Type: obs.EventParetoUpdate, Gen: gen, Front: front})
	}
	return objs, nil
}

// paretoFrontLocked computes the non-dominated set (maximise accuracy,
// minimise MFLOPs) over every model evaluated so far, for the
// pareto_update event. The analyzer package has the full-featured
// frontier, but it sits above core in the import graph; this local scan
// keeps the dependency arrow pointing the right way. Caller holds r.mu.
func (r *runner[G]) paretoFrontLocked() []obs.ParetoPoint {
	models := r.res.Models
	front := make([]obs.ParetoPoint, 0, 8)
	for i, m := range models {
		dominated := false
		for j, o := range models {
			if i == j {
				continue
			}
			if o.Fitness >= m.Fitness && o.MFLOPs <= m.MFLOPs &&
				(o.Fitness > m.Fitness || o.MFLOPs < m.MFLOPs) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, obs.ParetoPoint{ID: m.Record.ID, Accuracy: m.Fitness, MFLOPs: m.MFLOPs})
		}
	}
	return front
}

// quarantine moves a corrupt file aside via the store's quarantine
// method, counting it and surfacing the action as a recovery journal
// event.
func (r *runner[G]) quarantine(move func(id, reason string) (string, error), id, kind string, cause error) {
	if _, ok := quarantine(r.journal, move, id, kind, cause); ok {
		r.mu.Lock()
		r.res.Quarantined++
		r.mu.Unlock()
	}
}

// attachRecovery folds a resume preflight's report into the result.
func (r *runner[G]) attachRecovery(rep *RecoveryReport) {
	if rep == nil {
		return
	}
	r.mu.Lock()
	r.res.Recovery = rep
	r.journaled = rep.journal
	r.res.Quarantined += len(rep.Quarantined)
	r.mu.Unlock()
}

// modelResult assembles a ModelResult from a record.
func (r *runner[G]) modelResult(g G, rec *lineage.Record, fitness float64) *ModelResult {
	return &ModelResult{
		Genome:  macroOf(g),
		Record:  rec,
		Fitness: fitness,
		MFLOPs:  float64(rec.FLOPs) / 1e6,
	}
}

// finish completes the accounting and returns the result.
func (r *runner[G]) finish() *Result {
	// The engine's measured overhead counts toward wall time (§4.3.1).
	r.pool.AddOverhead(r.res.Overhead.TotalSeconds)
	r.res.Totals = r.pool.Totals()
	if r.res.Overhead.Interactions > 0 {
		r.res.Overhead.MeanSeconds = r.res.Overhead.TotalSeconds / float64(r.res.Overhead.Interactions)
		v := 0.0
		for _, s := range r.interactionSecs {
			d := s - r.res.Overhead.MeanSeconds
			v += d * d
		}
		r.res.Overhead.VarianceSec2 = v / float64(len(r.interactionSecs))
	}
	if math.IsNaN(r.res.Overhead.MeanSeconds) {
		r.res.Overhead.MeanSeconds = 0
	}
	return r.res
}

// release hands a finished model's scratch buffers back to the workspace
// (nn.Releaser), so the next candidate on any device trains on that
// memory instead of allocating its own. A model that holds none, like the
// surrogate, is left as it is.
func release(m Trainable) {
	if r, ok := m.(nn.Releaser); ok {
		r.Release()
	}
}
