package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"a4nn/internal/commons"
	"a4nn/internal/genome"
	"a4nn/internal/nsga"
	"a4nn/internal/sched"
)

// hashModelTrainer builds models whose learning curve depends only on
// the genome hash — not on the seed, and therefore not on which device
// (or which retry attempt) trained it. Fault-injection tests use it so a
// faulty run's Pareto front can honestly be compared with a fault-free
// run's.
type hashModelTrainer struct{}

func (hashModelTrainer) TrainSamples() int { return 100 }
func (hashModelTrainer) NewModel(g *genome.Genome, seed int64) (Trainable, error) {
	v := 0
	for _, c := range []byte(g.Hash()) {
		v = v*31 + int(c)
	}
	if v < 0 {
		v = -v
	}
	a := 85 + float64(v%1400)/100 // asymptote in [85, 99)
	return &scriptedModel{curve: expCurve(a, 0.4, 1, 100), flops: 1e9 + int64(g.ActiveNodes(0))*1e8}, nil
}

// paretoIDs derives the Pareto-optimal set of a run as sorted
// "fitness/MFLOPs" keys (IDs differ across runs when devices differ, so
// compare the objective points themselves).
func paretoIDs(res *Result) []string {
	objs := make([][]float64, len(res.Models))
	for i, m := range res.Models {
		objs[i] = []float64{100 - m.Fitness, m.MFLOPs}
	}
	idx := nsga.ParetoFront(objs)
	keys := make([]string, 0, len(idx))
	for _, i := range idx {
		keys = append(keys, fmt.Sprintf("%.6f/%.6f", res.Models[i].Fitness, res.Models[i].MFLOPs))
	}
	sort.Strings(keys)
	return keys
}

func faultTestConfig() Config {
	cfg := DefaultConfig(hashModelTrainer{})
	cfg.NAS = nsga.Config{PopulationSize: 6, Offspring: 6, Generations: 3, Seed: 11}
	cfg.MaxEpochs = 25
	cfg.Devices = 4
	cfg.Beam = "medium"
	return cfg
}

// TestWorkflowFaultyRunMatchesFaultFreePareto is the issue's headline
// acceptance criterion: a run with one device crash and injected
// transient failures completes on the survivors, reports nonzero
// retry/fault accounting, and finds the same Pareto front as the
// fault-free run.
func TestWorkflowFaultyRunMatchesFaultFreePareto(t *testing.T) {
	clean, err := Run(faultTestConfig())
	if err != nil {
		t.Fatal(err)
	}

	// An injected fault's loss is sized by the mean of the attempts its
	// generation already committed. Seed 6 injects into attempts taken
	// after their generation's first commit, so the loss is nonzero
	// whichever device finishes first.
	faulty := faultTestConfig()
	faulty.Faults = &sched.FaultPlan{
		Seed:          6,
		TransientProb: 0.10,
		Crashes:       []sched.DeviceCrash{{Device: 1, Generation: 1, AfterTasks: 1}},
	}
	res, err := Run(faulty)
	if err != nil {
		t.Fatal(err)
	}

	if res.Totals.Faults == 0 {
		t.Fatal("fault plan injected nothing")
	}
	if res.Totals.Retries == 0 {
		t.Fatal("no retries recorded")
	}
	if res.Totals.DeadDevices != 1 {
		t.Fatalf("dead devices %d, want 1", res.Totals.DeadDevices)
	}
	if res.Totals.LostSeconds <= 0 {
		t.Fatal("faults cost no simulated time")
	}
	// The devices were busy with the trained work plus what the failed
	// attempts lost.
	trained := 0.0
	for _, m := range res.Models {
		trained += m.Record.SimSeconds()
	}
	if booked := res.Totals.BusySeconds - res.Totals.LostSeconds; math.Abs(booked-trained) > 1e-9*trained {
		t.Fatalf("busy %v − lost %v = %v, want the %v trained seconds",
			res.Totals.BusySeconds, res.Totals.LostSeconds, booked, trained)
	}
	if len(res.Models) != len(clean.Models) {
		t.Fatalf("faulty run evaluated %d models, clean %d", len(res.Models), len(clean.Models))
	}

	cleanFront, faultyFront := paretoIDs(clean), paretoIDs(res)
	if strings.Join(cleanFront, ";") != strings.Join(faultyFront, ";") {
		t.Fatalf("Pareto front diverged under faults:\nclean:  %v\nfaulty: %v", cleanFront, faultyFront)
	}

	// The wall clock reflects the trouble: losing a device and retrying
	// work cannot be faster than the clean run.
	if res.Totals.WallSeconds < clean.Totals.WallSeconds {
		t.Fatalf("faulty wall %.1f < clean wall %.1f", res.Totals.WallSeconds, clean.Totals.WallSeconds)
	}
}

// failStepTrainer's models fail every training epoch — the transient
// classification path must retry them until attempts are exhausted.
type failStepTrainer struct{}

func (failStepTrainer) TrainSamples() int { return 100 }
func (failStepTrainer) NewModel(g *genome.Genome, seed int64) (Trainable, error) {
	return &failingModel{}, nil
}

type failingModel struct{}

func (m *failingModel) TrainEpoch() (EpochMetrics, error) {
	return EpochMetrics{}, fmt.Errorf("loss diverged")
}
func (m *failingModel) SaveState() ([]byte, error) { return nil, nil }
func (m *failingModel) FLOPs() int64               { return 1e9 }
func (m *failingModel) NumParams() int             { return 1 }
func (m *failingModel) Describe() string           { return "failing" }

func TestWorkflowRetryExhaustion(t *testing.T) {
	cfg := DefaultConfig(failStepTrainer{})
	cfg.NAS = nsga.Config{PopulationSize: 2, Offspring: 2, Generations: 1, Seed: 3}
	cfg.Devices = 2
	cfg.Retry = sched.RetryPolicy{MaxAttempts: 2}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("persistently failing training must fail the run")
	}
	if !strings.Contains(err.Error(), "after 2 attempt(s)") {
		t.Fatalf("error should report retry exhaustion: %v", err)
	}
	var step *TrainStepError
	if !errors.As(err, &step) {
		t.Fatalf("cause should be a TrainStepError: %v", err)
	}
}

// TestWorkflowResumeAfterKill kills a store-backed search after
// generation k (simulated by deleting all later records) and asserts
// that rerunning with Resume replays the k completed generations and
// finishes with the same Pareto set.
func TestWorkflowResumeAfterKill(t *testing.T) {
	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig() // single device: retraining is deterministic
	cfg.Store = store
	orig, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// "Kill" after generation 0: drop every record from generations ≥ 1.
	all, err := store.All()
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, rec := range all {
		if rec.Generation >= 1 {
			if err := os.Remove(filepath.Join(store.Root(), "records", rec.ID+".json")); err != nil {
				t.Fatal(err)
			}
		} else {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("no generation-0 records to resume from")
	}

	resumed := testConfig()
	resumed.Store = store
	resumed.Resume = true
	got, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Replayed != kept {
		t.Fatalf("replayed %d, want the %d surviving records", got.Replayed, kept)
	}
	if got.GenerationsReplayed != 1 {
		t.Fatalf("GenerationsReplayed %d, want 1", got.GenerationsReplayed)
	}
	if len(got.Models) != len(orig.Models) {
		t.Fatalf("resumed run evaluated %d models, original %d", len(got.Models), len(orig.Models))
	}
	for i := range orig.Models {
		if got.Models[i].Fitness != orig.Models[i].Fitness {
			t.Fatalf("model %d fitness diverged on resume: %v vs %v",
				i, got.Models[i].Fitness, orig.Models[i].Fitness)
		}
	}
	origFront, gotFront := paretoIDs(orig), paretoIDs(got)
	if strings.Join(origFront, ";") != strings.Join(gotFront, ";") {
		t.Fatalf("Pareto set diverged after resume:\norig:    %v\nresumed: %v", origFront, gotFront)
	}
	// The resumed store is complete again: every record restored.
	ids, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(orig.Models) {
		t.Fatalf("store has %d records after resume, want %d", len(ids), len(orig.Models))
	}
}

// TestWorkflowResumeCorruptRecord: a torn record (from a crash predating
// atomic writes, or tampering) is treated as missing — the model
// retrains and the run still completes.
func TestWorkflowResumeCorruptRecord(t *testing.T) {
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
	victim := orig.Models[0].Record.ID
	path := filepath.Join(store.Root(), "records", victim+".json")
	if err := os.WriteFile(path, []byte(`{"id": "torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.GetRecord(victim); !errors.Is(err, commons.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}

	resumed := testConfig()
	resumed.Store = store
	resumed.Resume = true
	got, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Replayed != len(orig.Models)-1 {
		t.Fatalf("replayed %d, want %d (corrupt record retrains)", got.Replayed, len(orig.Models)-1)
	}
	// The retrain overwrote the corrupt record with a valid one.
	if _, err := store.GetRecord(victim); err != nil {
		t.Fatalf("record not repaired: %v", err)
	}
}

func TestWorkflowResumeValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Resume = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("Resume without Store must fail validation")
	}
	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	cfg.ReplayFrom = store
	if _, err := Run(cfg); err == nil {
		t.Fatal("Resume with ReplayFrom must fail validation")
	}
	bad := testConfig()
	bad.TaskTimeoutSeconds = -1
	if _, err := Run(bad); err == nil {
		t.Fatal("negative task timeout must fail validation")
	}
	bad2 := testConfig()
	bad2.Faults = &sched.FaultPlan{TransientProb: 7}
	if _, err := Run(bad2); err == nil {
		t.Fatal("invalid fault plan must fail validation")
	}
}

func TestWorkflowRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, testConfig())
	if err == nil {
		t.Fatal("canceled context must abort the run")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestWorkflowRecordsCarryAttempt: records store the dispatch attempt, so
// the analyzer can report which networks were recovered by retry.
func TestWorkflowRecordsCarryAttempt(t *testing.T) {
	cfg := faultTestConfig()
	cfg.Faults = &sched.FaultPlan{Seed: 5, TransientProb: 0.10,
		Crashes: []sched.DeviceCrash{{Device: 1, Generation: 1, AfterTasks: 1}}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for _, m := range res.Models {
		if m.Record.Attempt < 1 {
			t.Fatalf("record %s has attempt %d", m.Record.ID, m.Record.Attempt)
		}
		if m.Record.Attempt > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no record marks a successful retry despite injected faults")
	}
}
