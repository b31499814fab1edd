package core

// Corruption recovery: the preflight a resumed run performs before
// touching the search. Temp files of writes killed before their rename
// are deleted; every record and checkpoint on disk is decoded; torn or
// tampered files are quarantined with a typed reason, stale
// checkpoints (their record already committed) are removed, and the
// valid records are cross-checked against events.jsonl, whose
// model_done events reveal records the dying run committed in memory
// but lost on disk, and whose epoch events are the checkpoints of the
// models that keep no checkpoint file. Each action is surfaced as a
// recovery journal event, which the health engine turns into alerts.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"a4nn/internal/commons"
	"a4nn/internal/durable"
	"a4nn/internal/obs"
)

// QuarantinedFile describes one corrupt file moved aside by recovery.
type QuarantinedFile struct {
	// ID is the record or checkpoint ID.
	ID string `json:"id"`
	// Kind is "record" or "checkpoint".
	Kind string `json:"kind"`
	// Reason is the typed corruption reason (checksum, truncated, ...).
	Reason string `json:"reason"`
	// Path is where the file now lives, under .corrupt/.
	Path string `json:"path"`
}

// RecoveryReport summarises a store recovery pass.
type RecoveryReport struct {
	// Records is the number of valid records indexed.
	Records int `json:"records"`
	// Checkpoints is the number of valid mid-training checkpoints kept.
	Checkpoints int `json:"checkpoints"`
	// Quarantined lists the corrupt files moved aside.
	Quarantined []QuarantinedFile `json:"quarantined,omitempty"`
	// StaleCheckpoints counts checkpoints deleted because their model's
	// record had already committed (a crash between commit and cleanup).
	StaleCheckpoints int `json:"stale_checkpoints,omitempty"`
	// LostRecords lists models the event journal saw finish but whose
	// records are missing from disk; the resumed search retrains them.
	LostRecords []string `json:"lost_records,omitempty"`
	// TempsRemoved counts the temp files of writes killed before their
	// rename that the pass deleted from the store.
	TempsRemoved int `json:"temps_removed,omitempty"`
	// journal is each model's progress as events.jsonl holds it.
	journal map[string]ModelProgress
}

// ModelProgress is one model's latest contiguous chain of journaled
// epoch events, 1..k, and whether its model_done followed.
type ModelProgress struct {
	Epochs []obs.Event
	Done   bool
}

// JournalProgress folds a run's journal into each model's progress:
// epoch 1 starts a chain (a fresh attempt), the next epoch extends it,
// and model_resume k continues it from its first k epochs; a gap, or a
// resume past what the chain holds, leaves the model no chain.
func JournalProgress(events []obs.Event) map[string]ModelProgress {
	out := make(map[string]ModelProgress)
	for _, e := range events {
		p := out[e.Model]
		switch {
		case e.Type == obs.EventModelDone:
			p.Done = true
		case e.Type == obs.EventModelResume && e.Epoch <= len(p.Epochs):
			p.Epochs, p.Done = p.Epochs[:e.Epoch], false
		case e.Type == obs.EventEpoch && (e.Epoch == 1 || e.Epoch == len(p.Epochs)+1):
			p.Epochs, p.Done = append(p.Epochs[:e.Epoch-1], e), false
		case e.Type == obs.EventEpoch || e.Type == obs.EventModelResume:
			p.Epochs, p.Done = nil, false
		default:
			continue
		}
		out[e.Model] = p
	}
	return out
}

// quarantine moves a corrupt file aside through move and surfaces the
// action as a recovery journal event (nil-safe), which the health engine
// turns into an alert. ok is false when the file could not be moved:
// another attempt won the race, or it is unreadable.
func quarantine(journal *obs.Journal, move func(id, reason string) (string, error), id, kind string, cause error) (q QuarantinedFile, ok bool) {
	reason := commons.CorruptionReason(cause)
	dest, err := move(id, reason)
	if err != nil {
		return q, false
	}
	journal.Emit(obs.Event{
		Type:   obs.EventRecovery,
		Model:  id,
		Reason: reason,
		Path:   dest,
		Msg:    fmt.Sprintf("quarantined corrupt %s %s (%s)", kind, id, reason),
	})
	return QuarantinedFile{ID: id, Kind: kind, Reason: reason, Path: dest}, true
}

// Clean reports whether recovery found nothing to repair.
func (r *RecoveryReport) Clean() bool {
	return r == nil || (len(r.Quarantined) == 0 && r.StaleCheckpoints == 0 && len(r.LostRecords) == 0 && r.TempsRemoved == 0)
}

// RecoverStore scans a commons store for crash damage and repairs what
// it can, emitting one recovery event per action into journal
// (nil-safe). It is idempotent: a second pass over a recovered store
// finds nothing.
func RecoverStore(store *commons.Store, journal *obs.Journal) (*RecoveryReport, error) {
	if store == nil {
		return nil, fmt.Errorf("core: RecoverStore needs a store")
	}
	rep := &RecoveryReport{}
	note := func(move func(string, string) (string, error), id, kind string, cause error) {
		if q, ok := quarantine(journal, move, id, kind, cause); ok {
			rep.Quarantined = append(rep.Quarantined, q)
		}
	}

	var err error
	if rep.TempsRemoved, err = durable.RemoveTemps(store.Root()); err != nil {
		return nil, fmt.Errorf("core: recovery temp sweep: %w", err)
	}
	if rep.TempsRemoved > 0 {
		journal.Emit(obs.Event{
			Type:   obs.EventRecovery,
			Reason: "temp",
			Count:  rep.TempsRemoved,
			Msg:    fmt.Sprintf("removed %d orphan temp file(s) of writes killed before their rename", rep.TempsRemoved),
		})
	}

	ids, err := store.List()
	if err != nil {
		return nil, err
	}
	valid := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, err := store.GetRecord(id); err != nil {
			note(store.QuarantineRecord, id, "record", err)
			continue
		}
		valid[id] = true
	}
	rep.Records = len(valid)

	ckpts, err := store.Checkpoints()
	if err != nil {
		return nil, err
	}
	for _, id := range ckpts {
		if _, err := store.GetCheckpoint(id); err != nil {
			note(store.QuarantineCheckpoint, id, "checkpoint", err)
			continue
		}
		if valid[id] {
			// The record committed; the crash hit between commit and
			// checkpoint cleanup.
			if err := store.DeleteCheckpoint(id); err == nil {
				rep.StaleCheckpoints++
				journal.Emit(obs.Event{
					Type:   obs.EventRecovery,
					Model:  id,
					Reason: "stale",
					Msg:    fmt.Sprintf("removed stale checkpoint %s (record already committed)", id),
				})
			}
			continue
		}
		rep.Checkpoints++
	}

	// Cross-check against the event journal: a model_done event without
	// a record on disk is work the dying run lost (e.g. a crash straight
	// after the journal append). Those models rebuild or retrain; the
	// report lists them so operators can see what the crash cost.
	eventsPath := filepath.Join(store.Root(), obs.EventsFile)
	if events, err := obs.ReadEvents(eventsPath); err == nil {
		rep.journal = JournalProgress(events)
		for id, p := range rep.journal {
			if p.Done && id != "" && !valid[id] {
				rep.LostRecords = append(rep.LostRecords, id)
			}
		}
		sort.Strings(rep.LostRecords)
		for _, id := range rep.LostRecords {
			journal.Emit(obs.Event{
				Type:   obs.EventRecovery,
				Model:  id,
				Reason: "lost",
				Msg:    fmt.Sprintf("journal saw %s finish but its record is missing; it will retrain", id),
			})
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("core: recovery journal scan: %w", err)
	}

	return rep, nil
}
