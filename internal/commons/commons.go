// Package commons implements the NN data commons (paper §2.3, §4.5): a
// local, directory-backed store of lineage record trails and per-epoch
// model-state snapshots, with the query and summary operations the
// paper's Dataverse deposit exposes through its accompanying Pandas
// script (mean accuracy, filtering by attributes, retrieving any model at
// any training epoch).
package commons

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"a4nn/internal/chaos"
	"a4nn/internal/durable"
	"a4nn/internal/lineage"
)

// ErrCorrupt marks a record that exists on disk but cannot be decoded or
// validated — a torn write from a crash predating atomic writes, or
// external tampering. Callers resuming a search treat a corrupt record
// like a missing one and retrain.
var ErrCorrupt = errors.New("corrupt record")

// Store is a data commons rooted at a directory. Records live at
// <root>/records/<id>.json; snapshots at <root>/models/<id>/epoch_<e>.bin.
// A Store is safe for concurrent use.
type Store struct {
	root string
	mu   sync.Mutex
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("commons: empty store path")
	}
	for _, sub := range []string{"records", "models", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("commons: create store layout: %w", err)
		}
	}
	return &Store{root: dir}, nil
}

// Root returns the store directory.
func (s *Store) Root() string { return s.root }

func (s *Store) recordPath(id string) string {
	return filepath.Join(s.root, "records", id+".json")
}

func (s *Store) snapshotPath(id string, epoch int) string {
	return filepath.Join(s.root, "models", id, fmt.Sprintf("epoch_%03d.bin", epoch))
}

// PutRecord writes (or replaces) a record trail. The write is atomic: a
// kill mid-write leaves either the previous record or the new one, never
// a torn file that would poison replay/resume.
func (s *Store) PutRecord(r *lineage.Record) error {
	data, err := r.MarshalBytes()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := durable.AtomicWrite(s.recordPath(r.ID), data, 0o644, false,
		chaos.PointRecordPreRename, chaos.PointRecordPostRename); err != nil {
		return fmt.Errorf("commons: write record %s: %w", r.ID, err)
	}
	return nil
}

// GetRecord loads a record by ID. A record that exists but cannot be
// decoded or validated returns an error wrapping ErrCorrupt.
func (s *Store) GetRecord(id string) (*lineage.Record, error) {
	data, err := os.ReadFile(s.recordPath(id))
	if err != nil {
		return nil, fmt.Errorf("commons: read record %s: %w", id, err)
	}
	rec, err := lineage.UnmarshalBytes(data)
	if err != nil {
		return nil, fmt.Errorf("commons: record %s: %w: %w", id, ErrCorrupt, err)
	}
	return rec, nil
}

// PutSnapshot stores the model state after the given (1-based) epoch, the
// paper's per-epoch torch.package equivalent (§2.2.2: "each model can be
// loaded and re-evaluated from any point in the training phase").
func (s *Store) PutSnapshot(id string, epoch int, state []byte) error {
	if epoch < 1 {
		return fmt.Errorf("commons: snapshot epoch must be ≥ 1, got %d", epoch)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := filepath.Join(s.root, "models", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("commons: create model dir for %s: %w", id, err)
	}
	if err := durable.AtomicWrite(s.snapshotPath(id, epoch), state, 0o644, false,
		chaos.PointSnapshotPreRename, ""); err != nil {
		return fmt.Errorf("commons: write snapshot %s@%d: %w", id, epoch, err)
	}
	return nil
}

// GetSnapshot loads the model state saved after the given epoch.
func (s *Store) GetSnapshot(id string, epoch int) ([]byte, error) {
	data, err := os.ReadFile(s.snapshotPath(id, epoch))
	if err != nil {
		return nil, fmt.Errorf("commons: read snapshot %s@%d: %w", id, epoch, err)
	}
	return data, nil
}

// Snapshots lists the epochs with stored snapshots for a model, ascending.
func (s *Store) Snapshots(id string) ([]int, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "models", id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("commons: list snapshots of %s: %w", id, err)
	}
	var epochs []int
	for _, e := range entries {
		// Sscanf ignores whatever follows ".bin" (an orphan temp file, a
		// stray copy), so only the exact name PutSnapshot writes counts.
		var epoch int
		if _, err := fmt.Sscanf(e.Name(), "epoch_%d.bin", &epoch); err == nil &&
			e.Name() == filepath.Base(s.snapshotPath(id, epoch)) {
			epochs = append(epochs, epoch)
		}
	}
	sort.Ints(epochs)
	return epochs, nil
}

// List returns all record IDs in the store, sorted.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "records"))
	if err != nil {
		return nil, fmt.Errorf("commons: list records: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			ids = append(ids, strings.TrimSuffix(e.Name(), ".json"))
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// All loads every record, sorted by ID.
func (s *Store) All() ([]*lineage.Record, error) {
	ids, err := s.List()
	if err != nil {
		return nil, err
	}
	records := make([]*lineage.Record, 0, len(ids))
	for _, id := range ids {
		r, err := s.GetRecord(id)
		if err != nil {
			return nil, err
		}
		records = append(records, r)
	}
	return records, nil
}

// Query returns the records satisfying pred, sorted by ID.
func (s *Store) Query(pred func(*lineage.Record) bool) ([]*lineage.Record, error) {
	all, err := s.All()
	if err != nil {
		return nil, err
	}
	var out []*lineage.Record
	for _, r := range all {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out, nil
}

// Summary aggregates the store the way the paper's Pandas companion
// script does: counts, accuracy statistics, epoch savings.
type Summary struct {
	Records            int
	TotalEpochsTrained int
	TerminatedEarly    int
	MeanFinalFitness   float64
	BestFinalFitness   float64
	MeanEpochsTrained  float64
	TotalSimSeconds    float64
}

// Summarize computes a Summary over all records (optionally filtered by
// beam; empty string means all).
func (s *Store) Summarize(beam string) (Summary, error) {
	all, err := s.All()
	if err != nil {
		return Summary{}, err
	}
	var sum Summary
	for _, r := range all {
		if beam != "" && r.Beam != beam {
			continue
		}
		sum.Records++
		sum.TotalEpochsTrained += r.EpochsTrained()
		if r.Terminated {
			sum.TerminatedEarly++
		}
		sum.MeanFinalFitness += r.FinalFitness
		if r.FinalFitness > sum.BestFinalFitness {
			sum.BestFinalFitness = r.FinalFitness
		}
		sum.TotalSimSeconds += r.SimSeconds()
	}
	if sum.Records > 0 {
		sum.MeanFinalFitness /= float64(sum.Records)
		sum.MeanEpochsTrained = float64(sum.TotalEpochsTrained) / float64(sum.Records)
	}
	return sum, nil
}
