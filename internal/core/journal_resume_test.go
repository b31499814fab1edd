package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"a4nn/internal/chaos"
	"a4nn/internal/commons"
	"a4nn/internal/durable"
	"a4nn/internal/lineage"
	"a4nn/internal/obs"
	"a4nn/internal/sched"
)

// journalConfig is testConfig over store with the store's journal at its
// root, as every -store run and every job has it. curveTrainer's models
// are not Resumable: they keep no checkpoint file.
func journalConfig(t *testing.T, store *commons.Store) Config {
	t.Helper()
	cfg := testConfig()
	cfg.Store = store
	cfg.Checkpoints = true
	cfg.Obs = obs.NewObserver()
	if err := cfg.Obs.Journal().OpenFile(filepath.Join(store.Root(), obs.EventsFile)); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// runJournaled runs cfg to completion, closes its journal and returns
// the result with the events this launch emitted.
func runJournaled(t *testing.T, cfg Config) (*Result, []obs.Event) {
	t.Helper()
	res, err := Run(cfg)
	if cerr := cfg.Obs.Journal().Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg.Obs.Journal().Since(0)
}

// killedStore runs the search into a fresh store, then leaves the store
// as a kill straight after the journal's first epoch-4 line of a
// generation-1 model would have: the journal ends at that line, so
// every record whose model_done came later is gone with it. It returns
// the store, the fault-free result and the journal's lines, the last
// one the cut model's epoch 4.
func killedStore(t *testing.T) (*commons.Store, *Result, [][]byte) {
	t.Helper()
	dir := t.TempDir()
	store, err := commons.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := runJournaled(t, journalConfig(t, store))
	if left, err := os.ReadDir(filepath.Join(dir, "checkpoints")); err != nil && !os.IsNotExist(err) || len(left) != 0 {
		t.Fatalf("a run whose models are not Resumable left %d file(s) under checkpoints/ (%v)", len(left), err)
	}
	if _, err := os.Stat(filepath.Join(dir, "records")); !os.IsNotExist(err) {
		t.Fatalf("a journaled run created records/ (%v)", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, obs.EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	for n, line := range lines {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("journal line %d: %v", n+1, err)
		}
		if e.Type != obs.EventEpoch || e.Gen != 1 || e.Epoch != 4 {
			continue
		}
		lines = lines[:n+1]
		// The relaunch opens the store afresh, as a new process does.
		store, err = commons.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		writeJournal(t, store, lines)
		return store, clean, lines
	}
	t.Fatal("no generation-1 model reached epoch 4")
	return nil, nil, nil
}

func writeJournal(t *testing.T, store *commons.Store, lines [][]byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(store.Root(), obs.EventsFile), bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// editCommits rewrites the model_done line of every model the journal
// of store commits through edit: the line itself, a shorter one (a torn
// append), or nil to drop it (a kill before the append). It returns the
// store opened afresh, as a relaunched process opens it.
func editCommits(t *testing.T, store *commons.Store, edit func(e obs.Event, line []byte) []byte) *commons.Store {
	t.Helper()
	path := filepath.Join(store.Root(), obs.EventsFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		var e obs.Event
		if json.Unmarshal(line, &e) == nil && e.Type == obs.EventModelDone {
			if line = edit(e, line); len(line) > 0 && line[len(line)-1] != '\n' {
				line = append(line, '\n') // the next launch terminates a torn line
			}
		}
		out = append(out, line...)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := commons.Open(store.Root())
	if err != nil {
		t.Fatal(err)
	}
	return reopened
}

// unfinished folds the journal lines into the models a kill left
// mid-training and the epoch each one's chain reaches.
func unfinished(t *testing.T, lines [][]byte) map[string]int {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, obs.EventsFile), bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := commons.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	chains, err := store.Unfinished()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for id, chain := range chains {
		if len(chain) > 0 {
			out[id] = len(chain)
		}
	}
	if len(out) == 0 {
		t.Fatal("the kill left no model mid-training")
	}
	return out
}

// journalEvents decodes the journal lines that are whole events.
func journalEvents(lines [][]byte) []obs.Event {
	var events []obs.Event
	for _, line := range lines {
		var e obs.Event
		if json.Unmarshal(line, &e) == nil {
			events = append(events, e)
		}
	}
	return events
}

// resumeJournaled relaunches a killed store with Resume.
func resumeJournaled(t *testing.T, store *commons.Store) (*Result, []obs.Event) {
	t.Helper()
	cfg := journalConfig(t, store)
	cfg.Resume = true
	return runJournaled(t, cfg)
}

// checkResumed holds a relaunch to the contract: each model in want
// resumes at exactly that epoch and every other trains fresh, no epoch
// at or below a resume point is journaled again, no model's convergence
// is journaled twice, every record equals the fault-free run's but for
// CreatedAt, and no checkpoint file is left.
func checkResumed(t *testing.T, store *commons.Store, clean, got *Result, before [][]byte, events []obs.Event, want map[string]int) {
	t.Helper()
	resumedAt := map[string]int{}
	converged := map[string]int{}
	for _, e := range append(journalEvents(before), events...) {
		switch e.Type {
		case obs.EventPredictConverge:
			if converged[e.Model]++; converged[e.Model] > 1 {
				t.Errorf("%s: convergence journaled twice", e.Model)
			}
		case obs.EventModelResume:
			resumedAt[e.Model] = e.Epoch
		case obs.EventEpoch:
			if k, ok := resumedAt[e.Model]; ok && e.Epoch <= k {
				t.Errorf("%s: epoch %d journaled again after resuming at %d", e.Model, e.Epoch, k)
			}
		}
	}
	if !reflect.DeepEqual(resumedAt, want) {
		t.Errorf("resumed at %v, want %v", resumedAt, want)
	}
	if got.Resumed != len(want) {
		t.Errorf("Result.Resumed = %d, want %d", got.Resumed, len(want))
	}
	if c, g := strings.Join(paretoIDs(clean), ";"), strings.Join(paretoIDs(got), ";"); c != g {
		t.Errorf("Pareto front diverged:\nclean:   %s\nresumed: %s", c, g)
	}
	records := map[string]lineage.Record{}
	for _, m := range clean.Models {
		rec := *m.Record
		rec.CreatedAt = time.Time{}
		records[rec.ID] = rec
	}
	for _, m := range got.Models {
		rec := *m.Record
		rec.CreatedAt = time.Time{}
		if !reflect.DeepEqual(rec, records[rec.ID]) {
			t.Errorf("record %s differs from the fault-free run's:\ngot:  %+v\nwant: %+v", rec.ID, rec, records[rec.ID])
		}
	}
	if left, err := store.Checkpoints(); err != nil || len(left) != 0 {
		t.Errorf("checkpoint files %v (%v) after a completed resume", left, err)
	}
	// The commons, folded afresh from the journal both launches wrote,
	// holds every fault-free record.
	reopened, err := commons.Open(store.Root())
	if err != nil {
		t.Fatal(err)
	}
	folded, err := reopened.All()
	if err != nil || len(folded) != len(records) {
		t.Fatalf("the journal folds into %d records (%v), want %d", len(folded), err, len(records))
	}
	for _, rec := range folded {
		rec.CreatedAt = time.Time{}
		if want := records[rec.ID]; !reflect.DeepEqual(*rec, want) {
			t.Errorf("folded record %s differs from the fault-free run's:\ngot:  %+v\nwant: %+v", rec.ID, *rec, want)
		}
	}
}

// TestWorkflowJournalResume: a model that is not Resumable keeps no
// checkpoint file; after a kill its journaled epochs are replayed and
// verified, and it continues from the last of them.
func TestWorkflowJournalResume(t *testing.T) {
	store, clean, lines := killedStore(t)
	want := unfinished(t, lines)
	got, events := resumeJournaled(t, store)
	checkResumed(t, store, clean, got, lines, events, want)
}

// TestWorkflowJournalTamperTrainsFresh: a journaled val_acc the replay
// does not reproduce means the journal does not describe the model: it
// trains fresh from epoch 1 and still reaches the fault-free record.
func TestWorkflowJournalTamperTrainsFresh(t *testing.T) {
	store, clean, lines := killedStore(t)
	want := unfinished(t, lines)
	var cut obs.Event
	if err := json.Unmarshal(lines[len(lines)-1], &cut); err != nil {
		t.Fatal(err)
	}
	tampered := false
	for n, line := range lines {
		var e obs.Event
		if json.Unmarshal(line, &e) != nil || e.Type != obs.EventEpoch || e.Model != cut.Model || e.Epoch != 2 {
			continue
		}
		e.ValAcc = math.Nextafter(e.ValAcc, 0)
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		lines[n] = append(b, '\n')
		tampered = true
	}
	if !tampered {
		t.Fatalf("no epoch 2 of %s in the journal", cut.Model)
	}
	writeJournal(t, store, lines)
	delete(want, cut.Model)
	got, events := resumeJournaled(t, store)
	checkResumed(t, store, clean, got, lines, events, want)
	for _, e := range events {
		if e.Model == cut.Model && e.Type == obs.EventEpoch {
			if e.Epoch != 1 {
				t.Errorf("%s: first epoch after the tamper is %d, want 1", cut.Model, e.Epoch)
			}
			break
		}
	}
}

// TestWorkflowJournalTornTail: a kill mid-append tears the journal's
// last line; its model resumes one epoch earlier.
func TestWorkflowJournalTornTail(t *testing.T) {
	store, clean, lines := killedStore(t)
	want := unfinished(t, lines)
	var cut obs.Event
	if err := json.Unmarshal(lines[len(lines)-1], &cut); err != nil {
		t.Fatal(err)
	}
	last := lines[len(lines)-1]
	lines[len(lines)-1] = last[:len(last)/2]
	writeJournal(t, store, lines)
	if want[cut.Model] != cut.Epoch {
		t.Fatalf("%s's chain reaches epoch %d, want the cut's %d", cut.Model, want[cut.Model], cut.Epoch)
	}
	want[cut.Model] = cut.Epoch - 1
	got, events := resumeJournaled(t, store)
	checkResumed(t, store, clean, got, lines, events, want)
}

// TestWorkflowJournalSupersedesOldCheckpoints: a store an earlier build
// left, with a checkpoint file of one frame per epoch for each
// unfinished model beside the journal, as that build's per-epoch frame
// log wrote them, quarantines each file as magic, resumes from the
// journal to the fault-free records and ends with no checkpoint file.
func TestWorkflowJournalSupersedesOldCheckpoints(t *testing.T) {
	store, clean, lines := killedStore(t)
	want := unfinished(t, lines)
	records := map[string]*lineage.Record{}
	for _, m := range clean.Models {
		records[m.Record.ID] = m.Record
	}
	nasSeed := testConfig().NAS.Seed
	for id, k := range want {
		rec := records[id]
		var slot int
		if _, err := fmt.Sscanf(id[strings.LastIndex(id, "-i"):], "-i%d", &slot); err != nil {
			t.Fatal(err)
		}
		// The seed the runner derives on device 0, as that build stored it.
		seed := nasSeed*1_000_003 + int64(rec.Generation)*10_007 + int64(slot)*101
		var data []byte
		for e := 1; e <= k; e++ {
			state := []byte{byte(e)}
			payload, err := json.Marshal(&commons.Checkpoint{ID: id, Genome: rec.Genome, Generation: rec.Generation,
				Seed: seed, Epoch: e, State: state, StateDigest: commons.StateDigest(state), Epochs: rec.Epochs[:e]})
			if err != nil {
				t.Fatal(err)
			}
			data = durable.AppendSection(data, "a4ck.model", payload)
		}
		if err := os.WriteFile(filepath.Join(store.Root(), "checkpoints", id+".ckpt"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A model at epoch 1 had a one-frame log, which is a valid file.
	logs := 0
	for _, k := range want {
		if k > 1 {
			logs++
		}
	}
	if logs == 0 {
		t.Fatal("no unfinished model past epoch 1: no frame log to quarantine")
	}
	got, events := resumeJournaled(t, store)
	checkResumed(t, store, clean, got, lines, events, want)
	if got.Quarantined != logs {
		t.Errorf("quarantined %d, want the %d frame logs", got.Quarantined, logs)
	}
	for _, q := range got.Recovery.Quarantined {
		if q.Reason != "magic" {
			t.Errorf("quarantined %+v, want a checkpoint with reason magic", q)
		}
	}
}

// TestFailedCommitFailsTheRun: a model's epoch and model_done lines are
// its record, so an append of one that fails (an err rule at the
// journal's append point, standing in for a full disk) fails its
// training, and a run, as a record file that did not land did. The
// store serves the same records live and reopened, and never the failed
// model's.
func TestFailedCommitFailsTheRun(t *testing.T) {
	t.Cleanup(func() { chaos.Install(nil) })
	inject := func(spec string) {
		plan, err := chaos.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		chaos.Install(plan)
	}
	// Three epochs and no engine: appends 1–3 are the epochs, 4 the commit.
	for visit := 2; visit <= 4; visit += 2 {
		store, err := commons.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		j := obs.NewJournal(0)
		if err := store.Attach(j); err != nil {
			t.Fatal(err)
		}
		orch := &Orchestrator{MaxEpochs: 3, Events: j}
		inject(fmt.Sprintf("err=%s@%d", chaos.PointJournalAppend, visit))
		_, err = orch.TrainModel(context.Background(), &scriptedModel{curve: []float64{10, 20, 30}},
			sched.Device{Throughput: 1e9}, 100, newRecord("m"))
		chaos.Install(nil)
		if !chaos.IsInjected(err) {
			t.Fatalf("append %d failed, TrainModel returned %v", visit, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := store.GetRecord("m"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("append %d failed, yet the model reads as %v", visit, err)
		}
	}

	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Store = store
	inject("err=" + chaos.PointJournalAppend + "%1")
	_, err = Run(cfg)
	chaos.Install(nil)
	if !chaos.IsInjected(err) {
		t.Fatalf("every append failed, the run returned %v", err)
	}
	live, err := store.All()
	if err != nil || len(live) != 0 {
		t.Fatalf("live store: %d records, %v", len(live), err)
	}
	reopened, err := commons.Open(store.Root())
	if err != nil {
		t.Fatal(err)
	}
	if back, err := reopened.All(); err != nil || !reflect.DeepEqual(back, live) {
		t.Fatalf("reopened store serves %d records, live %d: %v", len(back), len(live), err)
	}
}
