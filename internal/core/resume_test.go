package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"a4nn/internal/chaos"
	"a4nn/internal/commons"
	"a4nn/internal/genome"
	"a4nn/internal/lineage"
	"a4nn/internal/obs"
	"a4nn/internal/predict"
	"a4nn/internal/sched"
)

// resumableModel wraps scriptedModel with a native state restore, for
// testing the Resumable fast path.
type resumableModel struct {
	scriptedModel
	restored int
}

func (m *resumableModel) ResumeState() ([]byte, error) { return m.SaveState() }

func (m *resumableModel) RestoreState(state []byte, epoch int) error {
	m.i = int(state[0])
	m.restored = epoch
	return nil
}

// resumableTrainer is curveTrainer with models that restore their state
// natively, so they keep checkpoint files.
type resumableTrainer struct{ curveTrainer }

func (t resumableTrainer) NewModel(g *genome.Genome, seed int64) (Trainable, error) {
	m, err := t.curveTrainer.NewModel(g, seed)
	if err != nil {
		return nil, err
	}
	return &resumableModel{scriptedModel: *m.(*scriptedModel)}, nil
}

// resumableConfig is testConfig over resumableTrainer: the same curves,
// so the same search.
func resumableConfig() Config {
	cfg := testConfig()
	cfg.Trainer = resumableTrainer{curveTrainer{samples: 100}}
	return cfg
}

func TestOrchestratorCheckpointSink(t *testing.T) {
	var cps []*commons.Checkpoint
	m := &scriptedModel{curve: expCurve(90, 0.5, 1, 25), flops: 1e6}
	orch := &Orchestrator{
		MaxEpochs: 10,
		Seed:      1234,
		Checkpoint: func(cp *commons.Checkpoint) error {
			cps = append(cps, cp)
			return nil
		},
	}
	rec := newRecord("m")
	out, err := orch.TrainModel(context.Background(), m, sched.Device{Throughput: 1e9}, 100, rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.EpochsTrained != 10 || len(cps) != 10 {
		t.Fatalf("trained %d epochs, %d checkpoints", out.EpochsTrained, len(cps))
	}
	for i, cp := range cps {
		if err := cp.Validate(); err != nil {
			t.Fatalf("checkpoint %d invalid: %v", i, err)
		}
		if cp.Epoch != i+1 || cp.ID != "m" || cp.Seed != 1234 {
			t.Fatalf("checkpoint %d: epoch %d id %q seed %d", i, cp.Epoch, cp.ID, cp.Seed)
		}
		if commons.StateDigest(cp.State) != cp.StateDigest {
			t.Fatalf("checkpoint %d digest mismatch", i)
		}
		if len(cp.History()) != cp.Epoch {
			t.Fatalf("checkpoint %d history length %d", i, len(cp.History()))
		}
	}
}

// TestOrchestratorResumeMatchesFullRun: training interrupted at epoch k
// and resumed from the checkpoint produces the same record, accounting,
// and fitness as uninterrupted training.
func TestOrchestratorResumeMatchesFullRun(t *testing.T) {
	curve := expCurve(92, 0.5, 1, 25)
	full := &scriptedModel{curve: curve, flops: 1e6}
	fullRec := newRecord("m")
	fullOut, err := (&Orchestrator{MaxEpochs: 20}).TrainModel(
		context.Background(), full, sched.Device{Throughput: 1e9}, 100, fullRec)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted attempt: capture the checkpoint at epoch 7.
	var cp *commons.Checkpoint
	m := &scriptedModel{curve: curve, flops: 1e6}
	orch := &Orchestrator{MaxEpochs: 20, Checkpoint: func(c *commons.Checkpoint) error {
		if c.Epoch == 7 {
			cp = c
		}
		return nil
	}}
	if _, err := orch.TrainModel(context.Background(), m, sched.Device{Throughput: 1e9}, 100, newRecord("m")); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured at epoch 7")
	}

	// Resume: fresh model restored from the checkpoint, then handed to
	// an orchestrator with ResumeFrom.
	fresh := &resumableModel{scriptedModel: scriptedModel{curve: curve, flops: 1e6}}
	if err := ResumeModel(fresh, cp); err != nil {
		t.Fatal(err)
	}
	resRec := newRecord("m")
	resOut, err := (&Orchestrator{MaxEpochs: 20, ResumeFrom: cp}).TrainModel(
		context.Background(), fresh, sched.Device{Throughput: 1e9}, 100, resRec)
	if err != nil {
		t.Fatal(err)
	}
	if resOut.EpochsTrained != fullOut.EpochsTrained {
		t.Fatalf("resumed epochs %d, full %d", resOut.EpochsTrained, fullOut.EpochsTrained)
	}
	if resOut.SimSeconds != fullOut.SimSeconds {
		t.Fatalf("resumed sim %v, full %v", resOut.SimSeconds, fullOut.SimSeconds)
	}
	if resOut.FinalFitness != fullOut.FinalFitness {
		t.Fatalf("resumed fitness %v, full %v", resOut.FinalFitness, fullOut.FinalFitness)
	}
	if len(resRec.Epochs) != len(fullRec.Epochs) {
		t.Fatalf("resumed record has %d epochs, full %d", len(resRec.Epochs), len(fullRec.Epochs))
	}
	for i := range fullRec.Epochs {
		if resRec.Epochs[i].ValAccuracy != fullRec.Epochs[i].ValAccuracy {
			t.Fatalf("epoch %d diverged: %v vs %v",
				i+1, resRec.Epochs[i].ValAccuracy, fullRec.Epochs[i].ValAccuracy)
		}
	}
}

func TestResumeModelNativeRestore(t *testing.T) {
	state := []byte{9}
	cp := &commons.Checkpoint{
		ID: "m", Genome: "g", Epoch: 9, Seed: 1,
		State: state, StateDigest: commons.StateDigest(state),
		Epochs: make([]lineage.EpochEntry, 9),
	}
	m := &resumableModel{scriptedModel: scriptedModel{curve: expCurve(90, 0.5, 1, 25)}}
	if err := ResumeModel(m, cp); err != nil {
		t.Fatal(err)
	}
	if m.restored != 9 || m.i != 9 {
		t.Fatalf("native restore: epoch %d, position %d", m.restored, m.i)
	}

	// A digest that does not match the state is a corrupt checkpoint.
	bad := *cp
	bad.StateDigest++
	if err := ResumeModel(&resumableModel{}, &bad); !errors.Is(err, commons.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt on digest mismatch, got %v", err)
	} else if commons.CorruptionReason(err) != "digest" {
		t.Fatalf("reason %q, want digest", commons.CorruptionReason(err))
	}
}

// TestReplayJournalVerifiesBits: a model with no checkpoint file is
// rebuilt by replaying the epochs its journal holds, and a journal whose
// bits the replay does not reproduce is refused.
func TestReplayJournalVerifiesBits(t *testing.T) {
	curve := expCurve(90, 0.5, 1, 25)
	dev := sched.Device{Throughput: 1e9}
	var chain []lineage.EpochEntry
	for e := 1; e <= 5; e++ {
		chain = append(chain, lineage.EpochEntry{Epoch: e, ValAccuracy: curve[e-1], TrainLoss: 1 / float64(e),
			TrainAccuracy: curve[e-1], SimSeconds: 0.25})
	}
	m := &scriptedModel{curve: curve}
	cp, err := replayJournal(m, nil, dev, 100, "m", chain)
	if err != nil {
		t.Fatal(err)
	}
	if m.i != 5 || cp.Epoch != 5 || cp.SimSeconds != 1.25 || cp.Terminated {
		t.Fatalf("replay left the model at epoch %d, checkpoint %+v", m.i, cp)
	}
	for i, v := range cp.History() {
		if v != curve[i] || cp.Epochs[i].SimSeconds != 0.25 {
			t.Fatalf("epoch %d: %+v", i+1, cp.Epochs[i])
		}
	}

	// One ulp off in one journaled field is another model.
	for _, field := range []string{"val_acc", "loss"} {
		lying := append([]lineage.EpochEntry(nil), chain...)
		if field == "val_acc" {
			lying[2].ValAccuracy = math.Nextafter(lying[2].ValAccuracy, 100)
		} else {
			lying[2].TrainLoss = math.Nextafter(lying[2].TrainLoss, 100)
		}
		if _, err := replayJournal(&scriptedModel{curve: curve}, nil, dev, 100, "m", lying); err == nil {
			t.Errorf("a journal with another %s at epoch 3 replayed", field)
		}
	}

	// A flat curve converges early: a longer journal is not this model's.
	flat := make([]float64, 25)
	var long []lineage.EpochEntry
	for e := 1; e <= 25; e++ {
		flat[e-1] = 80
		long = append(long, lineage.EpochEntry{Epoch: e, ValAccuracy: 80, TrainLoss: 1 / float64(e)})
	}
	engineCfg := predict.DefaultConfig()
	if _, err := replayJournal(&scriptedModel{curve: flat}, &engineCfg, dev, 100, "m", long); err == nil {
		t.Error("a journal past the replay's convergence epoch replayed")
	}
}

// TestWorkflowCheckpointResumeMidGeneration is the tentpole scenario: a
// store-backed run dies mid-generation (an injected I/O error just after
// a checkpoint file lands), and a -resume relaunch continues from the
// per-model checkpoint instead of retraining, converging to the same
// result as an undisturbed run.
func TestWorkflowCheckpointResumeMidGeneration(t *testing.T) {
	t.Cleanup(func() { chaos.Install(nil) })

	clean, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}

	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crashCfg := resumableConfig()
	crashCfg.Store = store
	crashCfg.Checkpoints = true
	plan, err := chaos.Parse("err=" + chaos.PointCheckpointPostWrite + "@3")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Install(plan)
	_, err = Run(crashCfg)
	chaos.Install(nil)
	if err == nil {
		t.Fatal("injected checkpoint error must fail the run")
	}
	if !chaos.IsInjected(err) {
		t.Fatalf("failure should carry the injected error: %v", err)
	}

	// The generation drains its other tasks before reporting the
	// failure, so every record but the injected task's committed; that
	// model left a mid-training checkpoint behind instead.
	ids, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("store has %d records after crash, want 3", len(ids))
	}
	ckpts, err := store.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) == 0 {
		t.Fatal("no checkpoint survived the crash")
	}

	resumed := resumableConfig()
	resumed.Store = store
	resumed.Resume = true
	resumed.Checkpoints = true
	got, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Replayed != 3 {
		t.Fatalf("replayed %d records, want 3", got.Replayed)
	}
	if got.Resumed == 0 {
		t.Fatal("no model resumed from its checkpoint")
	}
	if got.Recovery == nil {
		t.Fatal("resume preflight report missing")
	}
	if len(got.Models) != len(clean.Models) {
		t.Fatalf("resumed run evaluated %d models, clean %d", len(got.Models), len(clean.Models))
	}
	cleanFront, gotFront := paretoIDs(clean), paretoIDs(got)
	if strings.Join(cleanFront, ";") != strings.Join(gotFront, ";") {
		t.Fatalf("Pareto front diverged after checkpoint resume:\nclean:   %v\nresumed: %v", cleanFront, gotFront)
	}
	// Cleanup happened: no checkpoint outlives its committed record.
	left, err := store.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("checkpoints left after complete resume: %v", left)
	}
}

// TestWorkflowCorruptCheckpointQuarantined: a tampered checkpoint is
// quarantined by the resume preflight and the model retrains cleanly.
func TestWorkflowCorruptCheckpointQuarantined(t *testing.T) {
	t.Cleanup(func() { chaos.Install(nil) })

	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crashCfg := resumableConfig()
	crashCfg.Store = store
	crashCfg.Checkpoints = true
	plan, err := chaos.Parse("err=" + chaos.PointCheckpointPostWrite + "@2")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Install(plan)
	if _, err := Run(crashCfg); err == nil {
		t.Fatal("injected error must fail the run")
	}
	chaos.Install(nil)

	ckpts, err := store.Checkpoints()
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("checkpoints %v, err %v", ckpts, err)
	}
	// Flip a byte in the payload of the surviving checkpoint's first
	// frame: damage before the last frame is corruption, not a torn
	// append (a damaged last frame would just be cut).
	path := filepath.Join(store.Root(), "checkpoints", ckpts[0]+".ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := resumableConfig()
	resumed.Store = store
	resumed.Resume = true
	resumed.Checkpoints = true
	got, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Quarantined == 0 {
		t.Fatal("tampered checkpoint not quarantined")
	}
	if got.Resumed != 0 {
		t.Fatal("corrupt checkpoint must not be resumed from")
	}
	entries, err := os.ReadDir(filepath.Join(store.Root(), commons.QuarantineDir))
	if err != nil || len(entries) == 0 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(entries), err)
	}
}

func TestRecoverStore(t *testing.T) {
	dir := t.TempDir()
	store, err := commons.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Two committed records, and a model in flight: its epochs are
	// journaled, its commit is not.
	for _, id := range []string{"a", "b"} {
		rec := newRecord(id)
		rec.Epochs = []lineage.EpochEntry{{Epoch: 1, ValAccuracy: 90}}
		if err := store.PutRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	j := obs.NewJournal(0)
	if err := store.Attach(j); err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 2; e++ {
		j.Emit(obs.Event{Type: obs.EventEpoch, Model: "live", Epoch: e, ValAcc: 50})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// One live checkpoint (no record), one stale (record committed), one
	// truncated.
	mk := func(id string) *commons.Checkpoint {
		return &commons.Checkpoint{
			ID: id, Genome: "g", Epoch: 1, Seed: 1,
			Epochs: []lineage.EpochEntry{{Epoch: 1, ValAccuracy: 50}},
		}
	}
	if err := store.PutCheckpoint(mk("live")); err != nil {
		t.Fatal(err)
	}
	if err := store.PutCheckpoint(mk("a")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoints", "short.ckpt"), []byte("A4"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := RecoverStore(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoints != 1 || rep.StaleCheckpoints != 1 {
		t.Fatalf("report %+v", rep)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].ID != "short" || rep.Quarantined[0].Reason != "magic" {
		t.Fatalf("quarantined %v", rep.Quarantined)
	}
	if chain := rep.unfinished["live"]; len(rep.unfinished) != 1 || len(chain) != 2 || chain[1].ValAccuracy != 50 {
		t.Fatalf("in flight %v", rep.unfinished)
	}
	if rep.Clean() {
		t.Fatal("a repaired store must not report clean")
	}
	// The stale checkpoint is gone; the live one remains.
	ckpts, err := store.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 || ckpts[0] != "live" {
		t.Fatalf("checkpoints after recovery: %v", ckpts)
	}
	// Idempotent: a second pass quarantines and deletes nothing more.
	rep2, err := RecoverStore(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() || rep2.Checkpoints != 1 || len(rep2.unfinished) != 1 {
		t.Fatalf("second pass report %+v", rep2)
	}
}

// TestRecoverStoreRemovesOrphanTemps: temp files of writes killed before
// their rename are the only damage; the pass deletes them, reports the
// count under one recovery event, and a second pass is clean.
func TestRecoverStoreRemovesOrphanTemps(t *testing.T) {
	dir := t.TempDir()
	store, err := commons.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutSnapshot("m", 1, []byte("s")); err != nil {
		t.Fatal(err)
	}
	orphans := []string{"checkpoints/a.ckpt.tmp-2", "models/m/epoch_002.bin.tmp-3", "job.json.tmp-4"}
	for _, rel := range orphans {
		if err := os.WriteFile(filepath.Join(dir, rel), []byte("half"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j := obs.NewJournal(16)
	rep, err := RecoverStore(store, j)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TempsRemoved != len(orphans) || rep.Clean() {
		t.Fatalf("report %+v, want %d temps removed and not clean", rep, len(orphans))
	}
	events := j.Since(0)
	if len(events) != 1 || events[0].Type != obs.EventRecovery || events[0].Reason != "temp" || events[0].Count != len(orphans) {
		t.Fatalf("events = %+v, want one recovery event counting the temps", events)
	}
	for _, rel := range orphans {
		if _, err := os.Stat(filepath.Join(dir, rel)); !os.IsNotExist(err) {
			t.Errorf("%s survived recovery (%v)", rel, err)
		}
	}
	if rep2, err := RecoverStore(store, j); err != nil || !rep2.Clean() {
		t.Fatalf("second pass = %+v, %v; want clean", rep2, err)
	}
}

func TestCheckpointsRequireStore(t *testing.T) {
	cfg := testConfig()
	cfg.Checkpoints = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("Checkpoints without Store must fail validation")
	}
}

// crashMidGeneration fails a checkpointed run just after its third
// checkpoint write and returns the store with the checkpoints it left
// behind.
func crashMidGeneration(t *testing.T) (*commons.Store, []string) {
	t.Helper()
	t.Cleanup(func() { chaos.Install(nil) })
	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumableConfig()
	cfg.Store = store
	cfg.Checkpoints = true
	plan, err := chaos.Parse("err=" + chaos.PointCheckpointPostWrite + "@3")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Install(plan)
	_, err = Run(cfg)
	chaos.Install(nil)
	if !chaos.IsInjected(err) {
		t.Fatalf("run should fail with the injected error: %v", err)
	}
	ckpts, err := store.Checkpoints()
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("checkpoints %v, err %v", ckpts, err)
	}
	return store, ckpts
}

// resumeRun resumes a crashed store with a journal attached.
func resumeRun(t *testing.T, store *commons.Store) (*Result, []obs.Event) {
	t.Helper()
	cfg := resumableConfig()
	cfg.Store = store
	cfg.Resume = true
	cfg.Checkpoints = true
	cfg.Obs = obs.NewObserver()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg.Obs.Journal().Since(0)
}

// TestWorkflowResumeAfterTornFrame: a kill at
// commons.checkpoint.pre_write leaves the previous epoch's whole file
// with the new epoch's temp file beside it; the resume sweeps the temp,
// and the model resumes at its file's epoch and trains no epoch twice
// past it.
func TestWorkflowResumeAfterTornFrame(t *testing.T) {
	clean, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One model at a time, so the twelfth checkpoint write is the same
	// model's on any host: past its first epoch, with every model before
	// it committed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t.Cleanup(func() { chaos.Install(nil) })
	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumableConfig()
	cfg.Store = store
	cfg.Checkpoints = true
	plan, err := chaos.Parse("err=" + chaos.PointCheckpointPreWrite + "@12")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Install(plan)
	_, err = Run(cfg)
	chaos.Install(nil)
	if !chaos.IsInjected(err) {
		t.Fatalf("run should fail with the injected error: %v", err)
	}
	ckpts, err := store.Checkpoints()
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("checkpoints %v, err %v; want the killed model's", ckpts, err)
	}
	at := map[string]int{}
	for _, id := range ckpts {
		cp, err := store.GetCheckpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		at[id] = cp.Epoch
	}
	// The injected error removed the temp file a kill leaves holding the
	// epoch whose rename never happened; put one back (nothing reads a
	// temp file, so its bytes do not matter).
	path := filepath.Join(store.Root(), "checkpoints", ckpts[0]+".ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp-4242", data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, events := resumeRun(t, store)
	if got.Recovery == nil || got.Recovery.TempsRemoved != 1 || got.Quarantined != 0 {
		t.Fatalf("recovery %+v, quarantined %d: want the temp file swept and nothing quarantined", got.Recovery, got.Quarantined)
	}
	if _, err := os.Stat(path + ".tmp-4242"); !os.IsNotExist(err) {
		t.Fatalf("the temp file survived the resume (%v)", err)
	}
	if got.Resumed != len(at) {
		t.Fatalf("resumed %d model(s), want the %d with a checkpoint file", got.Resumed, len(at))
	}
	resumedAt := map[string]int{}
	for _, e := range events {
		switch {
		case e.Type == obs.EventModelResume:
			resumedAt[e.Model] = e.Epoch
		case e.Type == obs.EventEpoch && e.Epoch <= resumedAt[e.Model]:
			t.Fatalf("%s: epoch %d trained again past the checkpoint at epoch %d", e.Model, e.Epoch, resumedAt[e.Model])
		}
	}
	for id, k := range at {
		if resumedAt[id] != k {
			t.Fatalf("%s resumed at epoch %d, want its file's %d", id, resumedAt[id], k)
		}
	}
	if c, g := strings.Join(paretoIDs(clean), ";"), strings.Join(paretoIDs(got), ";"); c != g {
		t.Fatalf("Pareto front diverged after a pre-write kill:\nclean:   %s\nresumed: %s", c, g)
	}
}

// TestWorkflowLegacyCheckpointQuarantined: a checkpoint in the retired
// "A4CK" envelope is never decoded as data; it is quarantined and its
// model retrains.
func TestWorkflowLegacyCheckpointQuarantined(t *testing.T) {
	clean, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, ckpts := crashMidGeneration(t)
	cp, err := store.GetCheckpoint(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte("A4CK"), 1)
	legacy = binary.LittleEndian.AppendUint32(legacy, uint32(len(payload)))
	legacy = binary.LittleEndian.AppendUint32(legacy, crc32.ChecksumIEEE(payload))
	legacy = append(legacy, payload...)
	for _, id := range ckpts {
		if err := os.WriteFile(filepath.Join(store.Root(), "checkpoints", id+".ckpt"), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	got, _ := resumeRun(t, store)
	if got.Resumed != 0 {
		t.Fatalf("%d model(s) resumed from a legacy checkpoint", got.Resumed)
	}
	if got.Quarantined != len(ckpts) {
		t.Fatalf("quarantined %d, want the %d legacy checkpoint(s)", got.Quarantined, len(ckpts))
	}
	for _, q := range got.Recovery.Quarantined {
		if q.Reason != "magic" {
			t.Fatalf("quarantined %+v, want a checkpoint with reason magic", q)
		}
	}
	if c, g := strings.Join(paretoIDs(clean), ";"), strings.Join(paretoIDs(got), ";"); c != g {
		t.Fatalf("Pareto front diverged after retraining:\nclean:   %s\nresumed: %s", c, g)
	}
}

// TestWorkflowRetryStartsFresh: under Resume, a deadline-aborted
// attempt's retry trains from epoch 1 as a plain run's would, instead
// of continuing its own failed attempt's checkpoint with that
// straggler's seed and inflated epoch cost.
func TestWorkflowRetryStartsFresh(t *testing.T) {
	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultTestConfig()
	cfg.Devices = 2
	cfg.Faults = &sched.FaultPlan{Seed: 1, SlowdownProb: 0.5, SlowdownFactor: 3}
	cfg.TaskTimeoutSeconds = 2
	cfg.Retry = sched.RetryPolicy{MaxAttempts: 4}
	cfg.Store = store
	cfg.Checkpoints = true
	cfg.Resume = true
	cfg.Obs = obs.NewObserver()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.Retries == 0 {
		t.Fatal("no attempt missed its deadline: nothing was retried")
	}
	if res.Resumed != 0 {
		t.Fatalf("%d retries resumed their failed attempt's checkpoint", res.Resumed)
	}
	for _, e := range cfg.Obs.Journal().Since(0) {
		if e.Type == obs.EventModelResume {
			t.Fatalf("model_resume event for %s on a fresh store", e.Model)
		}
	}
	for _, m := range res.Models {
		ep := m.Record.Epochs
		for _, e := range ep {
			if e.SimSeconds != ep[0].SimSeconds {
				t.Fatalf("%s: epoch %d cost %v, epoch 1 %v: priced by two attempts",
					m.Record.ID, e.Epoch, e.SimSeconds, ep[0].SimSeconds)
			}
		}
	}
}
