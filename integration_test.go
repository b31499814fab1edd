package a4nn

// Integration tests: the full user-facing pipeline from data generation
// through search to the data commons and back, exactly as the cmd tools
// drive it (xfelgen → a4nn -data -store → a4nn-analyze).

import (
	"math/rand"
	"path/filepath"
	"testing"

	"a4nn/internal/analyzer"
	"a4nn/internal/dataset"
	"a4nn/internal/genome"
	"a4nn/internal/lineage"
	"a4nn/internal/nn"
)

func TestIntegrationFilePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration in -short mode")
	}
	dir := t.TempDir()

	// 1. xfelgen: generate a dataset and persist it.
	params := DefaultSimulatorParams()
	params.Size = 16
	ds, err := GenerateXFEL(3, 160, HighBeam, params)
	if err != nil {
		t.Fatal(err)
	}
	dsPath := filepath.Join(dir, "high.gob")
	if err := ds.Save(dsPath); err != nil {
		t.Fatal(err)
	}

	// 2. a4nn -data -store: load, split, real-train a tiny search with
	//    record trails and per-epoch snapshots.
	loaded, err := dataset.Load(dsPath)
	if err != nil {
		t.Fatal(err)
	}
	train, val, err := loaded.Split(0.8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := NewRealTrainer(train, val, RealTrainerConfig{
		Decode: DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{4, 8, 8}, NumClasses: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenCommons(filepath.Join(dir, "commons"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(trainer)
	cfg.NAS = NASConfig{PopulationSize: 3, Offspring: 3, Generations: 2, Seed: 9}
	cfg.MaxEpochs = 6
	engineCfg := DefaultEngineConfig()
	engineCfg.EPred = 6
	cfg.Engine = &engineCfg
	cfg.Beam = "high"
	cfg.Store = store
	cfg.SnapshotEpochs = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 6 {
		t.Fatalf("evaluated %d models", len(res.Models))
	}

	// 3. a4nn-analyze: everything written must round-trip and reload.
	ids, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 6 {
		t.Fatalf("store has %d records", len(ids))
	}
	sum, err := store.Summarize("high")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 6 || sum.BestFinalFitness <= 50 {
		t.Fatalf("summary %+v", sum)
	}

	rec, err := store.GetRecord(res.Models[0].Record.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The record's genome decodes and its architecture renders.
	g, err := genome.Parse(rec.Genome, rec.NodesPerPhase)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analyzer.GenomeDOT(g, nil); err != nil {
		t.Fatal(err)
	}

	// 4. A stored per-epoch snapshot restores into a decoded network and
	//    reproduces the recorded validation accuracy (§2.2.2: models can
	//    be re-evaluated from any point of training).
	epochs, err := store.Snapshots(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != rec.EpochsTrained() {
		t.Fatalf("%d snapshots for %d epochs", len(epochs), rec.EpochsTrained())
	}
	state, err := store.GetSnapshot(rec.ID, epochs[len(epochs)-1])
	if err != nil {
		t.Fatal(err)
	}
	net, err := genome.Decode(g, genome.DecodeConfig{
		InShape: []int{1, 16, 16}, Widths: []int{4, 8, 8}, NumClasses: 2,
	}, rand.New(rand.NewSource(999)))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.LoadState(state); err != nil {
		t.Fatal(err)
	}
	batches, err := val.Batches(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := nn.EvaluateClassifier(net, batches)
	if err != nil {
		t.Fatal(err)
	}
	recorded := rec.Epochs[len(rec.Epochs)-1].ValAccuracy
	if acc != recorded {
		t.Fatalf("restored model evaluates to %v, record says %v", acc, recorded)
	}

	// 5. §6 analyses run on the stored models.
	var genomes []*genome.Genome
	var models []*ModelResult
	for _, id := range ids {
		r, err := store.GetRecord(id)
		if err != nil {
			t.Fatal(err)
		}
		gg, err := genome.Parse(r.Genome, r.NodesPerPhase)
		if err != nil {
			t.Fatal(err)
		}
		genomes = append(genomes, gg)
		models = append(models, &ModelResult{Genome: gg, Record: r,
			Fitness: r.FinalFitness, MFLOPs: float64(r.FLOPs) / 1e6})
	}
	if _, err := analyzer.Diversity(genomes); err != nil {
		t.Fatal(err)
	}
	corr := analyzer.AccuracyFLOPsCorrelation(models)
	if corr.N != 6 {
		t.Fatalf("correlation report %+v", corr)
	}
}

// TestIntegrationLineageConsistency cross-checks the lineage records of a
// surrogate run against the run's own accounting.
func TestIntegrationLineageConsistency(t *testing.T) {
	trainer, err := SurrogateTrainer(LowBeam)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(trainer)
	cfg.NAS = NASConfig{PopulationSize: 5, Offspring: 5, Generations: 3, Seed: 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	totalEpochs := 0
	for _, m := range res.Models {
		if err := m.Record.Validate(); err != nil {
			t.Fatal(err)
		}
		totalEpochs += m.Record.EpochsTrained()
		// Fitness history matches the recorded epochs.
		if len(m.Record.FitnessHistory()) != m.Record.EpochsTrained() {
			t.Fatal("fitness history length mismatch")
		}
		// Early-terminated records carry at least N predictions (the
		// analyzer needs N in the window to converge).
		if m.Record.Terminated && len(m.Record.PredictionHistory()) < 3 {
			t.Fatalf("record %s terminated with %d predictions", m.Record.ID, len(m.Record.PredictionHistory()))
		}
	}
	if totalEpochs != res.TotalEpochs {
		t.Fatalf("records sum to %d epochs, result says %d", totalEpochs, res.TotalEpochs)
	}
	_ = lineage.EngineParams{} // keep the lineage import for the doc reference
}

// TestIntegrationMultiClass drives the §6 generalisation: four protein
// conformations, a 4-class dataset, and real training of a decoded
// genome that must beat chance (25%) comfortably.
func TestIntegrationMultiClass(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-class training in -short mode")
	}
	params := DefaultSimulatorParams()
	params.Size = 16
	params.Protein.NumConformations = 4
	ds, err := GenerateXFEL(9, 240, HighBeam, params)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumClasses != 4 {
		t.Fatalf("classes %d", ds.NumClasses)
	}
	train, val, err := ds.Split(0.8, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := NewRealTrainer(train, val, RealTrainerConfig{
		Decode: DecodeConfig{InShape: []int{1, 16, 16}, Widths: []int{6, 12, 12}, NumClasses: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := genome.Parse("1010001|1100111|1000000", 4)
	if err != nil {
		t.Fatal(err)
	}
	model, err := trainer.NewModel(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for e := 0; e < 10; e++ {
		m, err := model.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if m.ValAccuracy > best {
			best = m.ValAccuracy
		}
	}
	if best < 55 {
		t.Fatalf("4-class accuracy %v, want well above 25%% chance", best)
	}
}
