// Package core composes the A4NN workflow (paper §2): an existing NAS
// (internal/nsga over the NSGA-Net search space of internal/genome), the
// decoupled parametric fitness-prediction engine (internal/predict), the
// workflow orchestrator that runs Algorithm 1 around each network's
// training loop, the resource manager (internal/sched) that spreads a
// generation across accelerators, and the lineage tracker / data commons
// (internal/lineage, internal/commons) that record every network's full
// training lifespan.
//
// The NAS, the trainer, and the prediction engine are all pluggable —
// the decoupling that makes the workflow composable: Run with a nil
// engine configuration is exactly the standalone-NSGA-Net baseline the
// paper compares against.
package core

import (
	"math/rand"

	"a4nn/internal/genome"
	"a4nn/internal/nn"
	"a4nn/internal/nsga"
)

// EpochMetrics reports one training epoch of one model.
type EpochMetrics struct {
	// TrainLoss is the epoch's mean training loss.
	TrainLoss float64
	// TrainAccuracy and ValAccuracy are percentages in [0, 100];
	// ValAccuracy is the fitness the prediction engine consumes.
	TrainAccuracy float64
	ValAccuracy   float64
}

// Trainable is one model mid-training. Implementations are not safe for
// concurrent use; the resource manager gives each model to one device.
type Trainable interface {
	// TrainEpoch advances training by one epoch and reports metrics.
	TrainEpoch() (EpochMetrics, error)
	// SaveState snapshots the model for the data commons.
	SaveState() ([]byte, error)
	// FLOPs is the per-sample forward cost (drives both the NAS's second
	// objective and the simulated epoch time).
	FLOPs() int64
	// NumParams is the trainable parameter count.
	NumParams() int
	// Describe renders the architecture for the lineage record.
	Describe() string
}

// Arch is what the workflow needs of a candidate architecture, whatever
// its search space: a stable identity for the data commons and an
// encoding for the lineage record.
type Arch interface {
	Hash() string
	String() string
}

// SearchSpace is one architecture encoding as the workflow sees it: the
// variation operators NSGA-II drives, validation of the space's own
// parameters, and decoding a genome into a trainable network (what
// RealTrainerOf trains). genome.MacroSpace and genome.MicroSpace are the
// two implementations.
type SearchSpace[G Arch] interface {
	nsga.Operators[G]
	Validate() error
	Decode(g G, cfg genome.DecodeConfig, rng *rand.Rand) (*nn.Network, error)
}

// TrainerOf creates Trainables from genomes of one search space.
// Implementations must be safe for concurrent NewModel calls (models for
// one generation are built on multiple devices at once).
type TrainerOf[G Arch] interface {
	// NewModel builds a fresh model for the genome; seed makes weight
	// initialisation (or surrogate curves) deterministic.
	NewModel(g G, seed int64) (Trainable, error)
	// TrainSamples is the training-set size, used for the simulated
	// per-epoch cost model.
	TrainSamples() int
}

// Trainer and MicroTrainer are the trainers of the macro and micro spaces.
type (
	Trainer      = TrainerOf[*genome.Genome]
	MicroTrainer = TrainerOf[*genome.MicroGenome]
)
