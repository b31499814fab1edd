// Package commons implements the NN data commons (paper §2.3, §4.5): a
// local, directory-backed store of lineage record trails and per-epoch
// model-state snapshots, with the query and summary operations the
// paper's Dataverse deposit exposes through its accompanying Pandas
// script (mean accuracy, filtering by attributes, retrieving any model at
// any training epoch).
package commons

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"a4nn/internal/chaos"
	"a4nn/internal/durable"
	"a4nn/internal/lineage"
	"a4nn/internal/obs"
)

// ErrCorrupt marks a file that exists on disk but cannot be decoded or
// validated: a torn write from a crash predating atomic writes, or
// external tampering. Callers resuming a search treat a corrupt
// checkpoint like a missing one and retrain.
var ErrCorrupt = errors.New("corrupt file")

// Store is a data commons rooted at a directory. Its record trails are
// the fold of <root>/events.jsonl (fold.go), which Export writes out as
// <root>/records/<id>.json; snapshots live at
// <root>/models/<id>/epoch_<e>.bin and checkpoints at
// <root>/checkpoints/<id>.ckpt. A Store is safe for concurrent use.
type Store struct {
	root string
	mu   sync.Mutex // serialises snapshot and checkpoint file moves and PutRecord

	readMu sync.Mutex // guards fold
	fold   *fold      // nil until the first read
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("commons: empty store path")
	}
	for _, sub := range []string{"models", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("commons: create store layout: %w", err)
		}
	}
	return &Store{root: dir}, nil
}

// Root returns the store directory.
func (s *Store) Root() string { return s.root }

// checkID refuses an id that is not one local path element ("", "..",
// "a/b", "../x"): every record and snapshot path joins its id under the
// store root, and an id from an HTTP path, a command line or a journal
// line must not name a file outside it.
func checkID(id string) error {
	if !filepath.IsLocal(id) || filepath.Base(id) != id {
		return fmt.Errorf("commons: invalid id %q: not one path element", id)
	}
	return nil
}

func (s *Store) eventsPath() string {
	return filepath.Join(s.root, obs.EventsFile)
}

func (s *Store) snapshotPath(id string, epoch int) string {
	return filepath.Join(s.root, "models", id, fmt.Sprintf("epoch_%03d.bin", epoch))
}

// Attach points j, the journal a run emits into, at the store's events
// file: one with no file gets the file opened, and one appending
// elsewhere is an error. Its epoch and model_done events then commit the
// run's record trails.
func (s *Store) Attach(j *obs.Journal) error {
	path := s.eventsPath()
	switch p := j.Path(); {
	case p == "":
		return j.OpenFile(path)
	case filepath.Clean(p) != filepath.Clean(path):
		return fmt.Errorf("commons: the run journals to %s, not to the store's %s", p, path)
	}
	return nil
}

// PutRecord commits a record trail as a run does, through a journal of
// its own: r's epoch events, then its model_done. It is for a store no
// run is journaling into, since the file takes one writer at a time. A
// record the journal cannot carry (one that fails Validate) is refused.
func (s *Store) PutRecord(r *lineage.Record) error {
	if err := checkID(r.ID); err != nil {
		return err
	}
	if err := r.Validate(); err != nil {
		return err
	}
	head := *r
	head.Epochs = nil
	s.mu.Lock()
	defer s.mu.Unlock()
	j := obs.NewJournal(1) // the ring is not read: one slot
	err := j.OpenFile(s.eventsPath())
	for i := 0; err == nil && i < len(r.Epochs); i++ {
		err = j.Emit(obs.EpochEvent(r.ID, r.Generation, &r.Epochs[i]))
	}
	if err == nil {
		err = j.Emit(obs.Event{Type: obs.EventModelDone, Gen: r.Generation, Model: r.ID, Fitness: r.FinalFitness,
			Epochs: len(r.Epochs), Terminated: r.Terminated, SimSeconds: r.SimSeconds(), Record: &head})
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("commons: write record %s: %w", r.ID, err)
	}
	return nil
}

// GetRecord returns the record trail of model id; one with no committed
// record is an error satisfying errors.Is(err, fs.ErrNotExist).
func (s *Store) GetRecord(id string) (*lineage.Record, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	var rec *lineage.Record
	err := s.read(func(f *fold) { rec = f.records[id].Clone() })
	if err == nil && rec == nil {
		err = fmt.Errorf("commons: record %s: %w", id, fs.ErrNotExist)
	}
	return rec, err
}

// PutSnapshot stores the model state after the given (1-based) epoch, the
// paper's per-epoch torch.package equivalent (§2.2.2: "each model can be
// loaded and re-evaluated from any point in the training phase").
func (s *Store) PutSnapshot(id string, epoch int, state []byte) error {
	if epoch < 1 {
		return fmt.Errorf("commons: snapshot epoch must be ≥ 1, got %d", epoch)
	}
	if err := checkID(id); err != nil {
		return err
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
	if err := checkID(id); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.snapshotPath(id, epoch))
	if err != nil {
		return nil, fmt.Errorf("commons: read snapshot %s@%d: %w", id, epoch, err)
	}
	return data, nil
}

// Snapshots lists the epochs with stored snapshots for a model, ascending.
func (s *Store) Snapshots(id string) ([]int, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
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
	var ids []string
	err := s.read(func(f *fold) {
		for id := range f.records {
			ids = append(ids, id)
		}
	})
	sort.Strings(ids)
	return ids, err
}

// All returns every record, sorted by ID.
func (s *Store) All() ([]*lineage.Record, error) {
	var records []*lineage.Record
	err := s.read(func(f *fold) {
		for _, r := range f.records {
			records = append(records, r.Clone())
		}
	})
	sort.Slice(records, func(a, b int) bool { return records[a].ID < records[b].ID })
	return records, err
}

// Export writes every record trail as <root>/records/<id>.json, its
// indented JSON, and returns how many it wrote.
func (s *Store) Export() (int, error) {
	records, err := s.All()
	if err != nil {
		return 0, err
	}
	dir := filepath.Join(s.root, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("commons: export: %w", err)
	}
	for _, r := range records {
		data, err := json.MarshalIndent(r, "", "  ")
		if err == nil {
			err = durable.AtomicWrite(filepath.Join(dir, r.ID+".json"), data, 0o644, false, "", "")
		}
		if err != nil {
			return 0, fmt.Errorf("commons: export %s: %w", r.ID, err)
		}
	}
	return len(records), nil
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
