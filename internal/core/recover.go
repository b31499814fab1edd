package core

// Corruption recovery: the preflight a resumed run performs before
// touching the search. Temp files of writes killed before their rename
// are deleted; every record and checkpoint on disk is decoded; torn or
// tampered files are quarantined with a typed reason, stale
// checkpoints (their record already committed) are removed, and the
// valid records are cross-checked against events.jsonl, whose
// model_done events reveal records the dying run committed in memory
// but lost on disk. Each action is surfaced as a recovery journal
// event, which the health engine turns into alerts.

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
	note := func(id, kind string, cause error) {
		reason := commons.CorruptionReason(cause)
		var move func(string, string) (string, error)
		if kind == "record" {
			move = store.QuarantineRecord
		} else {
			move = store.QuarantineCheckpoint
		}
		dest, err := move(id, reason)
		if err != nil {
			return
		}
		rep.Quarantined = append(rep.Quarantined, QuarantinedFile{ID: id, Kind: kind, Reason: reason, Path: dest})
		journal.Emit(obs.Event{
			Type:   obs.EventRecovery,
			Model:  id,
			Reason: reason,
			Path:   dest,
			Msg:    fmt.Sprintf("quarantined corrupt %s %s (%s)", kind, id, reason),
		})
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
			note(id, "record", err)
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
			note(id, "checkpoint", err)
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
	// after the journal append). Those models retrain; the report lists
	// them so operators can see what the crash cost.
	eventsPath := filepath.Join(store.Root(), obs.EventsFile)
	if events, err := obs.ReadEvents(eventsPath); err == nil {
		seen := map[string]bool{}
		for _, e := range events {
			if e.Type != obs.EventModelDone || e.Model == "" || seen[e.Model] {
				continue
			}
			seen[e.Model] = true
			if !valid[e.Model] {
				rep.LostRecords = append(rep.LostRecords, e.Model)
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
