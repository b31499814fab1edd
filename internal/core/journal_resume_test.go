package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"a4nn/internal/commons"
	"a4nn/internal/durable"
	"a4nn/internal/lineage"
	"a4nn/internal/obs"
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
// generation-1 model would have: the journal ends at that line, and
// every record whose model_done came later is gone. It returns the
// store, the fault-free result and the journal's lines, the last one
// the cut model's epoch 4.
func killedStore(t *testing.T) (*commons.Store, *Result, [][]byte) {
	t.Helper()
	store, err := commons.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := runJournaled(t, journalConfig(t, store))
	if left, err := os.ReadDir(filepath.Join(store.Root(), "checkpoints")); err != nil && !os.IsNotExist(err) || len(left) != 0 {
		t.Fatalf("a run whose models are not Resumable left %d file(s) under checkpoints/ (%v)", len(left), err)
	}
	path := filepath.Join(store.Root(), obs.EventsFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	done := map[string]bool{}
	for n, line := range lines {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("journal line %d: %v", n+1, err)
		}
		if e.Type == obs.EventModelDone {
			done[e.Model] = true
		}
		if e.Type != obs.EventEpoch || e.Gen != 1 || e.Epoch != 4 {
			continue
		}
		ids, err := store.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if !done[id] {
				if err := os.Remove(filepath.Join(store.Root(), "records", id+".json")); err != nil {
					t.Fatal(err)
				}
			}
		}
		lines = lines[:n+1]
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

// unfinished folds the journal lines into the models a kill left
// mid-training and the epoch each one's chain reaches.
func unfinished(t *testing.T, lines [][]byte) map[string]int {
	t.Helper()
	events := journalEvents(lines)
	out := map[string]int{}
	for id, p := range JournalProgress(events) {
		if !p.Done && len(p.Epochs) > 0 {
			out[id] = len(p.Epochs)
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
		if q.Kind != "checkpoint" || q.Reason != "magic" {
			t.Errorf("quarantined %+v, want a checkpoint with reason magic", q)
		}
	}
}
