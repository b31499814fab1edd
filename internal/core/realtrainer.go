package core

import (
	"fmt"
	"math/rand"

	"a4nn/internal/dataset"
	"a4nn/internal/genome"
	"a4nn/internal/nn"
)

// RealTrainerConfig configures genuine gradient-descent training of
// decoded genomes.
type RealTrainerConfig struct {
	// Decode shapes the decoded networks (input, phase widths, classes).
	Decode genome.DecodeConfig
	// BatchSize for SGD (default 32).
	BatchSize int
	// LR and Momentum for the SGD optimizer (defaults 0.05, 0.9).
	LR, Momentum float64
	// WeightDecay is the L2 penalty (default 0).
	WeightDecay float64
	// Scheduler, when non-nil, sets the learning rate before each epoch
	// (e.g. nn.CosineLR, the schedule NSGA-Net trains with). The LR field
	// is then only the optimizer's initial rate.
	Scheduler nn.LRScheduler
	// ClipNorm, when positive, clips the global gradient norm before each
	// optimizer step.
	ClipNorm float64
}

func (c *RealTrainerConfig) withDefaults() RealTrainerConfig {
	r := *c
	if r.BatchSize == 0 {
		r.BatchSize = 32
	}
	if r.LR == 0 {
		r.LR = 0.05
	}
	if r.Momentum == 0 {
		r.Momentum = 0.9
	}
	return r
}

// RealTrainerOf trains decoded genomes of one search space on a real
// dataset with the from-scratch NN engine. It is safe for concurrent
// NewModel calls; the underlying datasets are shared read-only.
type RealTrainerOf[G Arch] struct {
	space SearchSpace[G]
	realData
}

// RealTrainer is the real trainer of the macro space.
type RealTrainer = RealTrainerOf[*genome.Genome]

// realData is what every model of a real trainer shares.
type realData struct {
	cfg   RealTrainerConfig
	train *dataset.Dataset
	// valBatches is the validation split, shared read-only by every model.
	valBatches []nn.Batch
}

// NewRealTrainer returns a trainer of macro-space genomes.
func NewRealTrainer(train, val *dataset.Dataset, cfg RealTrainerConfig) (*RealTrainer, error) {
	return NewRealTrainerOf[*genome.Genome](genome.MacroSpace{}, train, val, cfg)
}

// NewRealMicroTrainer returns a trainer of micro-space cells.
func NewRealMicroTrainer(train, val *dataset.Dataset, cfg RealTrainerConfig) (*RealTrainerOf[*genome.MicroGenome], error) {
	return NewRealTrainerOf[*genome.MicroGenome](genome.MicroSpace{}, train, val, cfg)
}

// NewRealTrainerOf validates the datasets against the decode
// configuration and builds the validation batches; models are decoded by
// space.
func NewRealTrainerOf[G Arch](space SearchSpace[G], train, val *dataset.Dataset, cfg RealTrainerConfig) (*RealTrainerOf[G], error) {
	c := cfg.withDefaults()
	if train == nil || val == nil {
		return nil, fmt.Errorf("core: RealTrainer needs train and val datasets")
	}
	if train.Len() == 0 || val.Len() == 0 {
		return nil, fmt.Errorf("core: empty dataset (train %d, val %d)", train.Len(), val.Len())
	}
	ts := train.SampleShape()
	if len(ts) != 3 || len(c.Decode.InShape) != 3 ||
		ts[0] != c.Decode.InShape[0] || ts[1] != c.Decode.InShape[1] || ts[2] != c.Decode.InShape[2] {
		return nil, fmt.Errorf("core: dataset sample shape %v does not match decode input %v", ts, c.Decode.InShape)
	}
	if train.NumClasses > c.Decode.NumClasses {
		return nil, fmt.Errorf("core: dataset has %d classes but decoder emits %d", train.NumClasses, c.Decode.NumClasses)
	}
	valBatches, err := val.Batches(c.BatchSize, nil)
	if err != nil {
		return nil, err
	}
	return &RealTrainerOf[G]{space: space, realData: realData{cfg: c, train: train, valBatches: valBatches}}, nil
}

// TrainSamples implements TrainerOf.
func (t *RealTrainerOf[G]) TrainSamples() int { return t.train.Len() }

// NewModel implements TrainerOf.
func (t *RealTrainerOf[G]) NewModel(g G, seed int64) (Trainable, error) {
	rng := rand.New(rand.NewSource(seed))
	net, err := t.space.Decode(g, t.cfg.Decode, rng)
	if err != nil {
		return nil, err
	}
	opt, err := nn.NewSGD(t.cfg.LR, t.cfg.Momentum, t.cfg.WeightDecay)
	if err != nil {
		return nil, err
	}
	flops, err := net.FLOPs()
	if err != nil {
		return nil, err
	}
	batches, err := t.train.Batches(t.cfg.BatchSize, nil)
	if err != nil {
		return nil, err
	}
	return &realModel{trainer: &t.realData, net: net, opt: opt, rng: rng, flops: flops, batches: batches}, nil
}

// realModel is one decoded network mid-training.
type realModel struct {
	trainer *realData
	net     *nn.Network
	opt     nn.Optimizer
	rng     *rand.Rand
	flops   int64
	epoch   int
	// batches is the training split, reshuffled in place every epoch.
	batches []nn.Batch
}

// TrainEpoch implements Trainable.
func (m *realModel) TrainEpoch() (EpochMetrics, error) {
	m.epoch++
	if s := m.trainer.cfg.Scheduler; s != nil {
		if set, ok := m.opt.(nn.SetLR); ok {
			set.SetLR(s.LR(m.epoch))
		}
	}
	m.trainer.train.ShuffleInto(m.batches, m.rng)
	loss, trainAcc, err := nn.TrainEpochClipped(m.net, m.opt, m.batches, m.trainer.cfg.ClipNorm)
	if err != nil {
		return EpochMetrics{}, err
	}
	valAcc, err := nn.EvaluateClassifier(m.net, m.trainer.valBatches)
	if err != nil {
		return EpochMetrics{}, err
	}
	return EpochMetrics{TrainLoss: loss, TrainAccuracy: trainAcc, ValAccuracy: valAcc}, nil
}

// SaveState implements Trainable.
func (m *realModel) SaveState() ([]byte, error) { return m.net.SaveState() }

// RestoreState implements Resumable: reload serialized weights and jump
// the epoch counter so LR schedules continue where the crash left off.
func (m *realModel) RestoreState(state []byte, epoch int) error {
	if err := m.net.LoadState(state); err != nil {
		return err
	}
	m.epoch = epoch
	return nil
}

// FLOPs implements Trainable.
func (m *realModel) FLOPs() int64 { return m.flops }

// NumParams implements Trainable.
func (m *realModel) NumParams() int { return m.net.NumParams() }

// Describe implements Trainable.
func (m *realModel) Describe() string { return m.net.Describe() }
