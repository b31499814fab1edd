package core

import (
	"context"
	"fmt"
	"math/rand"

	"a4nn/internal/commons"
	"a4nn/internal/dataset"
	"a4nn/internal/genome"
	"a4nn/internal/nn"
	"a4nn/internal/nsga"
	"a4nn/internal/obs"
	"a4nn/internal/predict"
	"a4nn/internal/sched"
)

// MicroTrainer builds trainable models from micro (cell-based) genomes.
type MicroTrainer interface {
	// NewModel builds a fresh model for the cell; seed makes it
	// deterministic.
	NewModel(g *genome.MicroGenome, seed int64) (Trainable, error)
	// TrainSamples is the training-set size for the epoch cost model.
	TrainSamples() int
}

// MicroConfig assembles an A4NN run over the micro search space — the
// same workflow (prediction engine, FIFO resource manager, lineage
// tracking, replay) applied to NSGA-Net's cell-based encoding.
type MicroConfig struct {
	// NAS is the NSGA-II configuration.
	NAS nsga.Config
	// Engine configures the prediction engine; nil disables early
	// termination.
	Engine *predict.Config
	// MaxEpochs is the per-network training budget.
	MaxEpochs int
	// CellNodes is the number of DAG nodes per cell (default 3).
	CellNodes int
	// MutationRate is the per-field redraw probability (default 0.15).
	MutationRate float64
	// Devices and Throughput configure the resource manager.
	Devices    int
	Throughput float64
	// Trainer builds models from cells.
	Trainer MicroTrainer
	// Beam labels the dataset variant in lineage records.
	Beam string
	// Store / SnapshotEpochs / Checkpoints / OnModel / ReplayFrom as in
	// Config.
	Store          *commons.Store
	SnapshotEpochs bool
	Checkpoints    bool
	OnModel        func(*ModelResult)
	ReplayFrom     *commons.Store
	// Resume / Faults / Retry / TaskTimeoutSeconds / Obs / Gate as in
	// Config.
	Resume             bool
	Faults             *sched.FaultPlan
	Retry              sched.RetryPolicy
	TaskTimeoutSeconds float64
	Obs                *obs.Observer
	Gate               GenerationGate
}

// Validate reports the first problem with the configuration, or nil.
func (c MicroConfig) Validate() error {
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
	if c.CellNodes < 1 {
		return fmt.Errorf("core: CellNodes must be ≥ 1, got %d", c.CellNodes)
	}
	if c.Devices < 1 {
		return fmt.Errorf("core: Devices must be ≥ 1, got %d", c.Devices)
	}
	if c.Trainer == nil {
		return fmt.Errorf("core: Trainer must be set")
	}
	if c.MutationRate < 0 || c.MutationRate > 1 {
		return fmt.Errorf("core: MutationRate %v outside [0,1]", c.MutationRate)
	}
	return validateFaultKnobs(c.Resume, c.Checkpoints, c.Store != nil, c.ReplayFrom != nil,
		c.Faults, c.Retry, c.TaskTimeoutSeconds)
}

// microOps adapts the micro variation operators to nsga.Operators.
type microOps struct {
	nodes        int
	mutationRate float64
}

func (o microOps) Random(rng *rand.Rand) (*genome.MicroGenome, error) {
	return genome.NewRandomMicro(rng, o.nodes)
}

func (o microOps) Crossover(rng *rand.Rand, a, b *genome.MicroGenome) (*genome.MicroGenome, error) {
	return genome.CrossoverMicro(rng, a, b)
}

func (o microOps) Mutate(rng *rand.Rand, g *genome.MicroGenome) (*genome.MicroGenome, error) {
	return g.Mutate(rng, o.mutationRate), nil
}

// RunMicro executes an A4NN search over the micro search space.
func RunMicro(cfg MicroConfig) (*Result, error) {
	return RunMicroCtx(context.Background(), cfg)
}

// RunMicroCtx is RunMicro with cancellation, mirroring RunCtx.
func RunMicroCtx(ctx context.Context, cfg MicroConfig) (*Result, error) {
	if cfg.CellNodes == 0 {
		cfg.CellNodes = 3
	}
	if cfg.MutationRate == 0 {
		cfg.MutationRate = 0.15
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	replay := nilableStore(cfg.ReplayFrom)
	if cfg.Resume {
		replay = nilableStore(cfg.Store)
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
	r, err := newRunner(runnerParams{
		engineCfg:   cfg.Engine,
		maxEpochs:   cfg.MaxEpochs,
		devices:     cfg.Devices,
		throughput:  cfg.Throughput,
		beam:        cfg.Beam,
		store:       nilableStore(cfg.Store),
		replay:      replay,
		snapshots:   cfg.SnapshotEpochs,
		checkpoints: cfg.Checkpoints,
		resume:      cfg.Resume,
		onModel:     cfg.OnModel,
		samples:     cfg.Trainer.TrainSamples(),
		seed:        cfg.NAS.Seed,
		faults:      cfg.Faults,
		retry:       cfg.Retry,
		taskTimeout: cfg.TaskTimeoutSeconds,
		observer:    cfg.Obs,
		gate:        cfg.Gate,
	})
	if err != nil {
		return nil, err
	}
	r.attachRecovery(recovery)
	r.journal.Emit(obs.Event{Type: obs.EventRunStart, Devices: cfg.Devices, Epochs: cfg.MaxEpochs})

	evaluator := nsga.EvaluatorFunc[*genome.MicroGenome](func(gen int, cands []*genome.MicroGenome) ([][]float64, error) {
		infos := make([]archInfo, len(cands))
		for i, g := range cands {
			infos[i] = archInfo{hash: g.Hash(), encoding: g.String(), micro: g}
		}
		return r.evaluateGeneration(ctx, gen, infos, func(info archInfo, seed int64) (Trainable, error) {
			return cfg.Trainer.NewModel(info.micro, seed)
		})
	})

	ops := microOps{nodes: cfg.CellNodes, mutationRate: cfg.MutationRate}
	nasRes, err := nsga.Run[*genome.MicroGenome](cfg.NAS, ops, evaluator)
	if err != nil {
		r.journal.Emit(obs.Event{Type: obs.EventRunEnd, Err: err.Error()})
		return nil, err
	}
	res := r.finish()
	res.MicroNAS = nasRes
	r.emitRunEnd(res, cfg.MaxEpochs)
	return res, nil
}

// RealMicroTrainer trains decoded micro cells on a real dataset; it is
// the micro-space counterpart of RealTrainer and shares its
// configuration.
type RealMicroTrainer struct{ base *RealTrainer }

// NewRealMicroTrainer validates the datasets against the decode
// configuration.
func NewRealMicroTrainer(train, val *dataset.Dataset, cfg RealTrainerConfig) (*RealMicroTrainer, error) {
	// Reuse the macro trainer's validation (identical requirements).
	base, err := NewRealTrainer(train, val, cfg)
	if err != nil {
		return nil, err
	}
	return &RealMicroTrainer{base: base}, nil
}

// TrainSamples implements MicroTrainer.
func (t *RealMicroTrainer) TrainSamples() int { return t.base.TrainSamples() }

// NewModel implements MicroTrainer.
func (t *RealMicroTrainer) NewModel(g *genome.MicroGenome, seed int64) (Trainable, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := t.base.cfg
	net, err := genome.DecodeMicro(g, cfg.Decode, rng)
	if err != nil {
		return nil, err
	}
	opt, err := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	if err != nil {
		return nil, err
	}
	flops, err := net.FLOPs()
	if err != nil {
		return nil, err
	}
	return &realModel{trainer: t.base, net: net, opt: opt, rng: rng, flops: flops}, nil
}
