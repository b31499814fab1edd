package core

import (
	"context"
	"fmt"

	"a4nn/internal/commons"
	"a4nn/internal/genome"
	"a4nn/internal/lineage"
	"a4nn/internal/nsga"
	"a4nn/internal/obs"
	"a4nn/internal/predict"
	"a4nn/internal/sched"
)

// ConfigOf assembles a full A4NN (or standalone-NAS) run over the search
// space of genomes G.
type ConfigOf[G Arch] struct {
	// NAS is the NSGA-II configuration (Table 2).
	NAS nsga.Config
	// Engine configures the prediction engine (Table 1); nil runs the
	// standalone NAS baseline with fixed-budget training.
	Engine *predict.Config
	// MaxEpochs is the full per-network training budget (Table 2: 25).
	MaxEpochs int
	// Space is the search space: its shape, variation operators and
	// mutation rate (genome.MacroSpace, genome.MicroSpace).
	Space SearchSpace[G]
	// Devices is the accelerator count (the paper evaluates 1 and 4).
	Devices int
	// Throughput is the per-device FLOPs/s; 0 selects sched.DefaultThroughput.
	Throughput float64
	// Trainer builds models from genomes.
	Trainer TrainerOf[G]
	// Beam labels the dataset variant in lineage records.
	Beam string
	// Store, when non-nil, receives every record trail; SnapshotEpochs
	// additionally stores per-epoch model states.
	Store          *commons.Store
	SnapshotEpochs bool
	// Checkpoints persists each model's mid-training progress into Store
	// after every epoch, so a killed run rerun with Resume continues
	// *inside* the interrupted generation — finished models replay from
	// their records, half-trained ones from their checkpoints. Requires
	// Store.
	Checkpoints bool
	// OnModel, when non-nil, is invoked once per evaluated network as it
	// finishes training — for progress reporting. A generation's networks
	// train concurrently at any device count, so it is called from
	// several goroutines in completion order; implementations must be
	// safe for concurrent use.
	OnModel func(*ModelResult)
	// ReplayFrom, when non-nil, replays record trails from a previous
	// run's data commons instead of retraining: when a record with the
	// same identity (genome hash, generation, slot) and an identical
	// genome exists, its fitness, epochs, and simulated time are reused.
	// With the same seed and NAS configuration this reproduces a search
	// exactly from its record trails — the reproducibility §2.3 is after
	// — and lets an interrupted run resume, retraining only the models
	// whose records are missing.
	ReplayFrom *commons.Store
	// Resume replays completed work from Store itself before training
	// anything new: a killed search rerun with the same configuration
	// and Resume set continues from its last finished generation.
	// Requires Store; mutually exclusive with ReplayFrom.
	Resume bool
	// Faults, when non-nil, deterministically injects device crashes,
	// transient task failures, and stragglers into the device pool.
	Faults *sched.FaultPlan
	// Retry tunes transient-failure retry (zero value: defaults).
	Retry sched.RetryPolicy
	// TaskTimeoutSeconds is the per-attempt simulated deadline; an
	// attempt exceeding it is re-dispatched to another device (0 = off).
	TaskTimeoutSeconds float64
	// Obs, when non-nil, enables observability: the run registers its
	// metrics (epoch counters, task-latency histograms, predictor
	// savings) with the observer's registry and records generation /
	// task / epoch spans into its tracer. nil disables both with ~one
	// branch of overhead per event — the training hot path stays
	// allocation-free.
	Obs *obs.Observer
	// Gate, when non-nil, admits each generation before it is dispatched
	// to the device pool — the hook a multi-job scheduler (sched.Fleet)
	// uses to arbitrate one shared fleet across concurrent searches. The
	// returned release runs at the generation barrier, so preemption is
	// only ever between generations and the search's own pool (and hence
	// its task→device assignment and results) stays untouched.
	Gate GenerationGate
}

// Config and MicroConfig are the configurations of a search over the
// macro space (the paper's) and over the micro, cell-based space.
type (
	Config      = ConfigOf[*genome.Genome]
	MicroConfig = ConfigOf[*genome.MicroGenome]
)

// GenerationGate admits one generation of tasks and returns the release
// to call when the generation's barrier is reached. Returning an error
// aborts the search (a canceled or evicted job).
type GenerationGate func(ctx context.Context, gen, tasks int) (release func(), err error)

// DefaultConfig returns the paper's evaluation setup (Tables 1 and 2) for
// the given trainer: population 10, offspring 10, 10 generations, 25
// epochs, prediction engine on, one device.
func DefaultConfig(trainer Trainer) Config {
	engineCfg := predict.DefaultConfig()
	return Config{
		NAS:       nsga.DefaultConfig(),
		Engine:    &engineCfg,
		MaxEpochs: 25,
		Space:     genome.MacroSpace{Phases: 3, NodesPerPhase: 4},
		Devices:   1,
		Trainer:   trainer,
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c ConfigOf[G]) Validate() error {
	if err := c.NAS.Validate(); err != nil {
		return err
	}
	if c.Engine != nil {
		if err := c.Engine.Validate(); err != nil {
			return err
		}
	}
	if c.MaxEpochs < 1 {
		return fmt.Errorf("core: MaxEpochs must be ≥ 1, got %d", c.MaxEpochs)
	}
	if c.Space == nil {
		return fmt.Errorf("core: Space must be set")
	}
	if err := c.Space.Validate(); err != nil {
		return err
	}
	if c.Devices < 1 {
		return fmt.Errorf("core: Devices must be ≥ 1, got %d", c.Devices)
	}
	if c.Trainer == nil {
		return fmt.Errorf("core: Trainer must be set")
	}
	if c.Resume && c.Store == nil {
		return fmt.Errorf("core: Resume requires Store")
	}
	if c.Checkpoints && c.Store == nil {
		return fmt.Errorf("core: Checkpoints requires Store")
	}
	if c.Resume && c.ReplayFrom != nil {
		return fmt.Errorf("core: Resume and ReplayFrom are mutually exclusive (Resume replays from Store)")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if c.TaskTimeoutSeconds < 0 {
		return fmt.Errorf("core: negative TaskTimeoutSeconds %v", c.TaskTimeoutSeconds)
	}
	return nil
}

// ModelResult pairs an evaluated genome with its record trail and
// objectives.
type ModelResult struct {
	// Genome is the evaluated genome of a macro-space search (nil in any
	// other space; Record.Genome holds every space's encoding).
	Genome  *genome.Genome
	Record  *lineage.Record
	Fitness float64 // validation accuracy (percent) reported to the NAS
	MFLOPs  float64 // FLOPs / 1e6, the second NAS objective
}

// OverheadStats aggregates the measured prediction-engine overhead
// (paper §4.3.1: ~52 s per 100-model test, ~28 ms per interaction).
type OverheadStats struct {
	TotalSeconds float64
	Interactions int
	MeanSeconds  float64
	VarianceSec2 float64
}

// Result is the outcome of one workflow run.
type Result struct {
	// Models holds one entry per evaluated network, in evaluation order.
	Models []*ModelResult
	// Totals is the resource manager's simulated accounting.
	Totals sched.Totals
	// TotalEpochs counts training epochs across all networks; the
	// standalone baseline always spends MaxEpochs × len(Models).
	TotalEpochs int
	// TerminatedEarly counts networks stopped by the prediction engine.
	TerminatedEarly int
	// Replayed counts networks whose results were reused from
	// Config.ReplayFrom (or, with Resume, from Store) instead of
	// retrained.
	Replayed int
	// GenerationsReplayed counts generations whose every model was
	// replayed — the generations a resumed search skipped.
	GenerationsReplayed int
	// Resumed counts networks that continued from a mid-training
	// checkpoint instead of retraining from epoch 1.
	Resumed int
	// Quarantined counts corrupt files moved aside during this run
	// (recovery preflight plus any found mid-replay).
	Quarantined int
	// Recovery, when the Resume preflight ran, details what it found and
	// repaired.
	Recovery *RecoveryReport
	// Overhead aggregates the engine's measured cost.
	Overhead OverheadStats
}

// ParetoObjectives returns the objective vectors (100−accuracy, MFLOPs)
// of all evaluated models, for frontier analysis.
func (r *Result) ParetoObjectives() [][]float64 {
	objs := make([][]float64, len(r.Models))
	for i, m := range r.Models {
		objs[i] = []float64{100 - m.Fitness, m.MFLOPs}
	}
	return objs
}

// TerminationEpochs returns e_t for every early-terminated model
// (Figure 8's distribution).
func (r *Result) TerminationEpochs() []int {
	var out []int
	for _, m := range r.Models {
		if m.Record.Terminated {
			out = append(out, m.Record.TerminationEpoch)
		}
	}
	return out
}

// Run executes the workflow: NSGA-II proposes generations of genomes; the
// evaluator trains each generation across the device pool under
// Algorithm 1 and returns (100−fitness, MFLOPs) to the NAS; lineage
// records flow to the data commons.
func Run[G Arch](cfg ConfigOf[G]) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cancellation: when ctx is canceled, in-flight
// training stops between epochs and the run returns the context error.
func RunCtx[G Arch](ctx context.Context, cfg ConfigOf[G]) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var recovery *RecoveryReport
	if cfg.Resume {
		rep, err := RecoverStore(cfg.Store, cfg.Obs.Journal())
		if err != nil {
			return nil, err
		}
		recovery = rep
	}
	ctx = obs.WithTracer(ctx, cfg.Obs.Tracer())
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	r.attachRecovery(recovery)
	r.journal.Emit(obs.Event{Type: obs.EventRunStart, Devices: cfg.Devices, Epochs: cfg.MaxEpochs})

	evaluator := nsga.EvaluatorFunc[G](func(gen int, cands []G) ([][]float64, error) {
		return r.evaluateGeneration(ctx, gen, cands)
	})
	if _, err := nsga.Run[G](cfg.NAS, cfg.Space, evaluator); err != nil {
		r.journal.Emit(obs.Event{Type: obs.EventRunEnd, Err: err.Error()})
		return nil, err
	}
	res := r.finish()
	r.emitRunEnd(res)
	return res, nil
}

// RunMicro executes a search over the micro (cell-based) space.
func RunMicro(cfg MicroConfig) (*Result, error) { return Run(cfg) }

// RunMicroCtx is RunMicro with cancellation.
func RunMicroCtx(ctx context.Context, cfg MicroConfig) (*Result, error) { return RunCtx(ctx, cfg) }

// emitRunEnd publishes the run's closing event with the headline
// accounting the dashboard's savings ticker sums up.
func (r *runner[G]) emitRunEnd(res *Result) {
	r.journal.Emit(obs.Event{
		Type:        obs.EventRunEnd,
		Tasks:       len(res.Models),
		Epochs:      res.TotalEpochs,
		SavedEpochs: len(res.Models)*r.cfg.MaxEpochs - res.TotalEpochs,
		WallSeconds: res.Totals.WallSeconds,
		IdleSeconds: res.Totals.IdleSeconds,
		LostSeconds: res.Totals.LostSeconds,
		Retries:     res.Totals.Retries,
		Faults:      res.Totals.Faults,
	})
}
