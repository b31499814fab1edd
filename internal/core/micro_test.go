package core

import (
	"fmt"
	"math/rand"
	"testing"

	"a4nn/internal/commons"
	"a4nn/internal/genome"
	"a4nn/internal/nsga"
	"a4nn/internal/predict"
)

// microCurveTrainer is a deterministic surrogate for micro-workflow tests.
type microCurveTrainer struct{ samples int }

func (t microCurveTrainer) TrainSamples() int { return t.samples }
func (t microCurveTrainer) NewModel(g *genome.MicroGenome, seed int64) (Trainable, error) {
	rng := rand.New(rand.NewSource(seed))
	a := 85 + 14*rng.Float64()
	return &scriptedModel{curve: expCurve(a, 0.4, 1, 100), flops: 1e8 + int64(len(g.OutputNodes()))*1e7}, nil
}

func microTestConfig() MicroConfig {
	engineCfg := predict.DefaultConfig()
	return MicroConfig{
		NAS:       nsga.Config{PopulationSize: 4, Offspring: 4, Generations: 2, Seed: 3},
		Engine:    &engineCfg,
		MaxEpochs: 25,
		Space:     genome.MicroSpace{},
		Devices:   1,
		Trainer:   microCurveTrainer{samples: 100},
		Beam:      "high",
	}
}

func TestRunMicroWorkflow(t *testing.T) {
	res, err := RunMicro(microTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 8 {
		t.Fatalf("evaluated %d models", len(res.Models))
	}
	if res.TerminatedEarly == 0 {
		t.Fatal("clean curves must terminate early")
	}
	for _, m := range res.Models {
		if m.Genome != nil || m.Record.NodesPerPhase != 0 {
			t.Fatal("micro models must not carry macro genomes")
		}
		if err := m.Record.Validate(); err != nil {
			t.Fatal(err)
		}
		// The record encodes the cell and decodes back.
		if _, err := genome.ParseMicro(m.Record.Genome); err != nil {
			t.Fatalf("record genome %q: %v", m.Record.Genome, err)
		}
	}
}

// TestRunMicroValidation: RunMicro is Run instantiated, so
// TestWorkflowValidation covers the shared checks; only the space differs.
func TestRunMicroValidation(t *testing.T) {
	cfg := microTestConfig()
	cfg.Space = genome.MicroSpace{CellNodes: -1}
	if _, err := RunMicro(cfg); err == nil {
		t.Fatal("negative cell nodes must fail")
	}
	cfg = microTestConfig()
	cfg.Trainer = nil
	if _, err := RunMicro(cfg); err == nil {
		t.Fatal("nil trainer must fail")
	}
}

func TestRunMicroReplay(t *testing.T) {
	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := microTestConfig()
	cfg.Store = store
	orig, err := RunMicro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replay := microTestConfig()
	replay.Trainer = panicMicroTrainer{}
	replay.ReplayFrom = store
	got, err := RunMicro(replay)
	if err != nil {
		t.Fatal(err)
	}
	if got.Replayed != len(orig.Models) {
		t.Fatalf("replayed %d of %d", got.Replayed, len(orig.Models))
	}
}

type panicMicroTrainer struct{}

func (panicMicroTrainer) TrainSamples() int { return 100 }
func (panicMicroTrainer) NewModel(g *genome.MicroGenome, seed int64) (Trainable, error) {
	return nil, fmt.Errorf("replay run attempted to train %s", g.Hash())
}

// TestRealMicroTrainerEndToEnd runs a tiny real-training micro search.
func TestRealMicroTrainerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real training in -short mode")
	}
	train, val := highBeamSplit16(t, 160)
	trainer, err := NewRealMicroTrainer(train, val, RealTrainerConfig{
		Decode: genome.DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8}, NumClasses: 2},
		LR:     0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	engineCfg := predict.DefaultConfig()
	engineCfg.EPred = 6
	res, err := RunMicro(MicroConfig{
		NAS:       nsga.Config{PopulationSize: 3, Offspring: 3, Generations: 2, Seed: 5},
		Engine:    &engineCfg,
		MaxEpochs: 6,
		Space:     genome.MicroSpace{CellNodes: 2},
		Devices:   2,
		Trainer:   trainer,
		Beam:      "high",
	})
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, m := range res.Models {
		if m.Fitness > best {
			best = m.Fitness
		}
	}
	if best < 60 {
		t.Fatalf("best micro fitness %v; expected learning", best)
	}
}
