package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"a4nn/internal/commons"
	"a4nn/internal/dataset"
	"a4nn/internal/genome"
	"a4nn/internal/nsga"
	"a4nn/internal/predict"
	"a4nn/internal/xfel"
)

// curveTrainer is a tiny deterministic trainer for workflow tests: every
// model follows a clean concave curve whose asymptote depends on the
// genome hash, so the engine terminates most models early.
type curveTrainer struct{ samples int }

func (t curveTrainer) TrainSamples() int { return t.samples }
func (t curveTrainer) NewModel(g *genome.Genome, seed int64) (Trainable, error) {
	rng := rand.New(rand.NewSource(seed))
	a := 85 + 14*rng.Float64()
	return &scriptedModel{curve: expCurve(a, 0.4, 1, 100), flops: 1e9 + int64(g.ActiveNodes(0))*1e8}, nil
}

func testConfig() Config {
	cfg := DefaultConfig(curveTrainer{samples: 100})
	cfg.NAS = nsga.Config{PopulationSize: 4, Offspring: 4, Generations: 3, Seed: 7}
	cfg.MaxEpochs = 25
	cfg.Beam = "medium"
	return cfg
}

func TestWorkflowRunA4NN(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantModels := 4 + 4*2
	if len(res.Models) != wantModels {
		t.Fatalf("evaluated %d models, want %d", len(res.Models), wantModels)
	}
	if res.TotalEpochs >= wantModels*25 {
		t.Fatalf("A4NN must save epochs: %d of %d", res.TotalEpochs, wantModels*25)
	}
	if res.TerminatedEarly == 0 {
		t.Fatal("no model terminated early on clean curves")
	}
	if res.Overhead.Interactions == 0 || res.Overhead.TotalSeconds <= 0 {
		t.Fatalf("missing overhead accounting: %+v", res.Overhead)
	}
	if res.Overhead.MeanSeconds <= 0 {
		t.Fatal("mean interaction time missing")
	}
	if res.Totals.WallSeconds <= 0 || res.Totals.Tasks != wantModels {
		t.Fatalf("pool totals %+v", res.Totals)
	}
	// Every record validates and carries engine parameters.
	for _, m := range res.Models {
		if err := m.Record.Validate(); err != nil {
			t.Fatal(err)
		}
		if m.Record.Engine == nil || m.Record.Engine.EPred != 25 {
			t.Fatalf("record engine params %+v", m.Record.Engine)
		}
		if m.Record.Beam != "medium" {
			t.Fatalf("record beam %q", m.Record.Beam)
		}
	}
}

func TestWorkflowStandaloneBaseline(t *testing.T) {
	cfg := testConfig()
	cfg.Engine = nil
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantModels := 12
	if res.TotalEpochs != wantModels*25 {
		t.Fatalf("standalone must train the full budget: %d", res.TotalEpochs)
	}
	if res.TerminatedEarly != 0 {
		t.Fatal("standalone must not terminate early")
	}
	if res.Overhead.Interactions != 0 {
		t.Fatal("standalone must not invoke the engine")
	}
	for _, m := range res.Models {
		if m.Record.Engine != nil {
			t.Fatal("standalone records must not carry engine params")
		}
	}
}

func TestWorkflowA4NNSavesWallTimeVsStandalone(t *testing.T) {
	a4nn := testConfig()
	resA, err := Run(a4nn)
	if err != nil {
		t.Fatal(err)
	}
	standalone := testConfig()
	standalone.Engine = nil
	resS, err := Run(standalone)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Totals.WallSeconds >= resS.Totals.WallSeconds {
		t.Fatalf("A4NN wall %v must beat standalone %v",
			resA.Totals.WallSeconds, resS.Totals.WallSeconds)
	}
}

func TestWorkflowFourDevicesSpeedup(t *testing.T) {
	one := testConfig()
	one.NAS.PopulationSize, one.NAS.Offspring = 8, 8
	resOne, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	four := one
	four.Devices = 4
	resFour, err := Run(four)
	if err != nil {
		t.Fatal(err)
	}
	speedup := resOne.Totals.WallSeconds / resFour.Totals.WallSeconds
	if speedup < 2.5 {
		t.Fatalf("4-device speedup %v too small", speedup)
	}
	if resFour.Totals.IdleSeconds <= 0 {
		t.Fatal("generation barrier must leave idle time on 4 devices")
	}
}

func TestWorkflowWritesCommons(t *testing.T) {
	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.NAS = nsga.Config{PopulationSize: 3, Offspring: 3, Generations: 2, Seed: 1}
	cfg.Store = store
	cfg.SnapshotEpochs = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(res.Models) {
		t.Fatalf("store has %d records for %d models", len(ids), len(res.Models))
	}
	// Per-epoch snapshots exist for the first model.
	snaps, err := store.Snapshots(res.Models[0].Record.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != res.Models[0].Record.EpochsTrained() {
		t.Fatalf("%d snapshots for %d epochs", len(snaps), res.Models[0].Record.EpochsTrained())
	}
}

func TestWorkflowDeterministicForSeed(t *testing.T) {
	r1, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalEpochs != r2.TotalEpochs || len(r1.Models) != len(r2.Models) {
		t.Fatal("same-seed runs diverged")
	}
	for i := range r1.Models {
		if r1.Models[i].Fitness != r2.Models[i].Fitness {
			t.Fatalf("model %d fitness diverged", i)
		}
	}
}

func TestWorkflowValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Trainer = nil
	if _, err := Run(cfg); err == nil {
		t.Fatal("nil trainer must fail")
	}
	cfg = testConfig()
	cfg.Devices = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("0 devices must fail")
	}
	cfg = testConfig()
	cfg.MaxEpochs = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("0 epochs must fail")
	}
	cfg = testConfig()
	bad := predict.Config{}
	cfg.Engine = &bad
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid engine config must fail")
	}
	// The space validates its own parameters (genome.TestSpaceContract);
	// the configuration must pass its verdict on.
	cfg = testConfig()
	cfg.Space = genome.MacroSpace{Phases: 0, NodesPerPhase: 4}
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid space must fail")
	}
	cfg = testConfig()
	cfg.Space = nil
	if _, err := Run(cfg); err == nil {
		t.Fatal("nil space must fail")
	}
}

func TestResultHelpers(t *testing.T) {
	res, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	objs := res.ParetoObjectives()
	if len(objs) != len(res.Models) || len(objs[0]) != 2 {
		t.Fatalf("objectives shape %d×%d", len(objs), len(objs[0]))
	}
	ets := res.TerminationEpochs()
	if len(ets) != res.TerminatedEarly {
		t.Fatalf("%d termination epochs for %d terminated", len(ets), res.TerminatedEarly)
	}
	for _, e := range ets {
		if e < 1 || e > 25 {
			t.Fatalf("e_t %d out of range", e)
		}
	}
}

// TestRealTrainerEndToEnd drives the genuine pipeline: XFEL data → decoded
// genome → gradient descent → workflow, at tiny scale.
func TestRealTrainerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real training in -short mode")
	}
	train, val := highBeamSplit16(t, 120)
	trainer, err := NewRealTrainer(train, val, RealTrainerConfig{
		Decode: genome.DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8, 8}, NumClasses: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(trainer)
	cfg.NAS = nsga.Config{PopulationSize: 3, Offspring: 3, Generations: 2, Seed: 5}
	cfg.MaxEpochs = 6
	engineCfg := predict.DefaultConfig()
	engineCfg.EPred = 6
	cfg.Engine = &engineCfg
	cfg.Beam = "high"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 6 {
		t.Fatalf("evaluated %d models", len(res.Models))
	}
	best := 0.0
	for _, m := range res.Models {
		if m.Fitness > best {
			best = m.Fitness
		}
	}
	if best < 60 {
		t.Fatalf("best real-trained fitness %v; expected learning on high beam", best)
	}
}

func TestRealTrainerValidation(t *testing.T) {
	if _, err := NewRealTrainer(nil, nil, RealTrainerConfig{}); err == nil {
		t.Fatal("nil datasets must fail")
	}
	sim, err := xfel.NewSimulator(3, xfel.DefaultSimulatorParams())
	if err != nil {
		t.Fatal(err)
	}
	pats, err := sim.GenerateBatch(1, 10, xfel.HighBeam)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.FromPatterns(pats)
	if err != nil {
		t.Fatal(err)
	}
	// Decode shape mismatch (dataset is 32×32).
	if _, err := NewRealTrainer(ds, ds, RealTrainerConfig{
		Decode: genome.DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8, 8}, NumClasses: 2},
	}); err == nil {
		t.Fatal("shape mismatch must fail")
	}
}

func TestWorkflowOnModelCallback(t *testing.T) {
	cfg := testConfig()
	var mu sync.Mutex
	var seen []string
	cfg.OnModel = func(m *ModelResult) {
		mu.Lock()
		seen = append(seen, m.Record.ID)
		mu.Unlock()
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Models) {
		t.Fatalf("callback fired %d times for %d models", len(seen), len(res.Models))
	}
}

// panicTrainer fails loudly if the workflow ever asks it to build a
// model; replay runs must never train.
type panicTrainer struct{}

func (panicTrainer) TrainSamples() int { return 100 }
func (panicTrainer) NewModel(g *genome.Genome, seed int64) (Trainable, error) {
	return nil, fmt.Errorf("replay run attempted to train %s", g.Hash())
}

func TestWorkflowReplayFromCommons(t *testing.T) {
	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Store = store
	orig, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Replay: same NAS seed, trainer that refuses to train.
	replay := testConfig()
	replay.Trainer = panicTrainer{}
	replay.ReplayFrom = store
	got, err := Run(replay)
	if err != nil {
		t.Fatal(err)
	}
	if got.Replayed != len(orig.Models) {
		t.Fatalf("replayed %d of %d models", got.Replayed, len(orig.Models))
	}
	if got.TotalEpochs != orig.TotalEpochs || got.TerminatedEarly != orig.TerminatedEarly {
		t.Fatalf("replay accounting diverged: %d/%d vs %d/%d",
			got.TotalEpochs, got.TerminatedEarly, orig.TotalEpochs, orig.TerminatedEarly)
	}
	for i := range orig.Models {
		if got.Models[i].Fitness != orig.Models[i].Fitness {
			t.Fatalf("model %d fitness diverged on replay", i)
		}
	}
	// Simulated wall time replays too (modulo the engine overhead, which
	// is measured, not replayed).
	if got.Totals.BusySeconds != orig.Totals.BusySeconds {
		t.Fatalf("replayed busy time %v vs original %v",
			got.Totals.BusySeconds, orig.Totals.BusySeconds)
	}
}

func TestWorkflowReplayPartialMiss(t *testing.T) {
	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Store = store
	orig, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Delete one record: that model must retrain, the rest replay.
	victim := orig.Models[3].Record.ID
	if err := os.Remove(filepath.Join(store.Root(), "records", victim+".json")); err != nil {
		t.Fatal(err)
	}
	replay := testConfig()
	replay.ReplayFrom = store
	got, err := Run(replay)
	if err != nil {
		t.Fatal(err)
	}
	if got.Replayed != len(orig.Models)-1 {
		t.Fatalf("replayed %d, want %d", got.Replayed, len(orig.Models)-1)
	}
}
