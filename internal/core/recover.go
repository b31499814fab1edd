package core

// Corruption recovery: the preflight a resumed run performs before
// touching the search. Temp files of writes killed before their rename
// are deleted; every checkpoint on disk is decoded, torn or tampered
// ones are quarantined with a typed reason, and stale ones (their
// model's record already committed) are removed. The models the
// journal holds in flight are what the resumed run continues: their
// journaled epochs are the checkpoints of the models that keep no
// checkpoint file. Each action is surfaced as a recovery journal event,
// which the health engine turns into alerts.

import (
	"fmt"

	"a4nn/internal/commons"
	"a4nn/internal/durable"
	"a4nn/internal/lineage"
	"a4nn/internal/obs"
)

// QuarantinedFile describes one corrupt checkpoint moved aside by
// recovery.
type QuarantinedFile struct {
	// ID is the checkpoint's model ID.
	ID string `json:"id"`
	// Reason is the typed corruption reason (checksum, truncated, ...).
	Reason string `json:"reason"`
	// Path is where the file now lives, under .corrupt/.
	Path string `json:"path"`
}

// RecoveryReport summarises a store recovery pass.
type RecoveryReport struct {
	// Checkpoints is the number of valid mid-training checkpoints kept.
	Checkpoints int `json:"checkpoints"`
	// Quarantined lists the corrupt files moved aside.
	Quarantined []QuarantinedFile `json:"quarantined,omitempty"`
	// StaleCheckpoints counts checkpoints deleted because their model's
	// record had already committed (a crash between commit and cleanup).
	StaleCheckpoints int `json:"stale_checkpoints,omitempty"`
	// TempsRemoved counts the temp files of writes killed before their
	// rename that the pass deleted from the store.
	TempsRemoved int `json:"temps_removed,omitempty"`
	// unfinished is each model in flight with its journaled epochs.
	unfinished map[string][]lineage.EpochEntry
}

// quarantine moves a corrupt checkpoint aside and surfaces the action
// as a recovery journal event (nil-safe), which the health engine turns
// into an alert. ok is false when the file could not be moved: another
// attempt won the race, or it is unreadable.
func quarantine(journal *obs.Journal, store *commons.Store, id string, cause error) (q QuarantinedFile, ok bool) {
	reason := commons.CorruptionReason(cause)
	dest, err := store.QuarantineCheckpoint(id, reason)
	if err != nil {
		return q, false
	}
	journal.Emit(obs.Event{
		Type:   obs.EventRecovery,
		Model:  id,
		Reason: reason,
		Path:   dest,
		Msg:    fmt.Sprintf("quarantined corrupt checkpoint %s (%s)", id, reason),
	})
	return QuarantinedFile{ID: id, Reason: reason, Path: dest}, true
}

// Clean reports whether recovery found nothing to repair.
func (r *RecoveryReport) Clean() bool {
	return r == nil || (len(r.Quarantined) == 0 && r.StaleCheckpoints == 0 && r.TempsRemoved == 0)
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

	ckpts, err := store.Checkpoints()
	if err != nil {
		return nil, err
	}
	for _, id := range ckpts {
		if _, err := store.GetCheckpoint(id); err != nil {
			if q, ok := quarantine(journal, store, id, err); ok {
				rep.Quarantined = append(rep.Quarantined, q)
			}
			continue
		}
		if _, err := store.GetRecord(id); err == nil {
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

	if rep.unfinished, err = store.Unfinished(); err != nil {
		return nil, err
	}
	return rep, nil
}
