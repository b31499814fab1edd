package commons

// Model-level checkpoints: per-model training progress persisted
// crash-safely so -resume continues *inside* an interrupted generation
// instead of retraining it from epoch 1.
//
// checkpoints/<id>.ckpt is a log of durable sections (frames), each
// holding a JSON Checkpoint. The first frame, "a4ck.model", is a whole
// checkpoint and names the model. Every later frame, "a4ck.epoch", is a
// suffix: the epoch entries and interaction timings added since the
// frame before it, plus the latest epoch count, state, digest, totals
// and Terminated flag. A training attempt appends one frame per epoch
// (CheckpointLog); a reader folds the frames back into one Checkpoint.
// A torn final frame — a kill mid-append — is dropped by the fold and
// cut by the next append, so a crash costs at most that epoch. A frame
// that fails its CRC with bytes after it, and a file with no intact
// frame, are corrupt and get quarantined.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"a4nn/internal/chaos"
	"a4nn/internal/durable"
	"a4nn/internal/lineage"
)

// The frame names: the head of every checkpoint file, then one per
// append.
const (
	headFrame  = "a4ck.model"
	epochFrame = "a4ck.epoch"
)

// headPrefix is how every checkpoint file starts: the head frame's name
// length and name.
var headPrefix = durable.AppendSection(nil, headFrame, nil)[:4+len(headFrame)]

// Checkpoint is one model's mid-training progress: everything needed to
// rebuild the model (Genome + the original Seed), restore its state
// (State + StateDigest), rehydrate the prediction
// engine (the per-epoch entries carry H and P), and resume the lineage
// record and resource accounting exactly where the crash cut them off.
type Checkpoint struct {
	// ID is the lineage record ID the checkpoint belongs to.
	ID string `json:"id,omitempty"`
	// Genome is the model's encoded architecture; a mismatch with the
	// scheduled genome marks the checkpoint stale and it is ignored.
	Genome string `json:"genome,omitempty"`
	// Generation is the NAS generation the model belongs to.
	Generation int `json:"generation,omitempty"`
	// Seed is the seed the model was originally built with. Resume must
	// reuse it — not the relaunched run's device-derived seed — so the
	// continued training reproduces the fault-free trajectory.
	Seed int64 `json:"seed,omitempty"`
	// Epoch is the number of completed training epochs.
	Epoch int `json:"epoch"`
	// Terminated records that the prediction engine had already declared
	// convergence; resume then skips straight to the final fitness.
	Terminated bool `json:"terminated,omitempty"`
	// State is the model's serialized state after Epoch epochs.
	State []byte `json:"state,omitempty"`
	// StateDigest is the FNV-1a digest of State, re-verified before the
	// state is restored.
	StateDigest uint64 `json:"state_digest,omitempty"`
	// Epochs are the lineage entries for epochs 1..Epoch; they carry the
	// fitness history H and the prediction history P.
	Epochs []lineage.EpochEntry `json:"epochs"`
	// SimSeconds, EngineSeconds, Interactions, and InteractionSeconds
	// snapshot the training-loop accounting at the checkpoint.
	SimSeconds         float64   `json:"sim_seconds,omitempty"`
	EngineSeconds      float64   `json:"engine_seconds,omitempty"`
	Interactions       int       `json:"interactions,omitempty"`
	InteractionSeconds []float64 `json:"interaction_seconds,omitempty"`
	// SavedAt is the wall-clock write time.
	SavedAt time.Time `json:"saved_at"`

	// size is the length of the intact frames GetCheckpoint read, where
	// a resumed CheckpointLog appends.
	size int64
}

// Validate reports the first problem with the checkpoint, or nil.
func (c *Checkpoint) Validate() error {
	if c.ID == "" || c.Genome == "" {
		return errors.New("checkpoint needs ID and Genome")
	}
	return c.validateFrom(0)
}

// validateFrom checks the epoch count and the labels of the entries
// past the first k, which an earlier check already covered.
func (c *Checkpoint) validateFrom(k int) error {
	if c.Epoch < 1 {
		return fmt.Errorf("checkpoint epoch %d must be ≥ 1", c.Epoch)
	}
	if len(c.Epochs) != c.Epoch {
		return fmt.Errorf("checkpoint has %d epoch entries for epoch %d", len(c.Epochs), c.Epoch)
	}
	for i := k; i < len(c.Epochs); i++ {
		if e := c.Epochs[i]; e.Epoch != i+1 {
			return fmt.Errorf("checkpoint epoch entry %d labelled %d", i, e.Epoch)
		}
	}
	return nil
}

// History returns the fitness history H recorded in the checkpoint.
func (c *Checkpoint) History() []float64 {
	h := make([]float64, len(c.Epochs))
	for i, e := range c.Epochs {
		h[i] = e.ValAccuracy
	}
	return h
}

// Predictions returns the prediction history P and the 1-based epochs
// at which each prediction was produced.
func (c *Checkpoint) Predictions() (p []float64, epochs []int) {
	for _, e := range c.Epochs {
		if e.HasPrediction {
			p = append(p, e.Prediction)
			epochs = append(epochs, e.Epoch)
		}
	}
	return p, epochs
}

// StateDigest hashes a serialized model state (FNV-1a). It is stored in
// checkpoints and re-verified at resume, catching a restored model that
// diverges from the state the checkpoint described.
func StateDigest(state []byte) uint64 {
	h := fnv.New64a()
	h.Write(state)
	return h.Sum64()
}

// CorruptionError is the typed decode failure of a stored file: Reason
// classifies what broke ("magic", "truncated", "checksum", "decode",
// "validate", "digest"). It unwraps to ErrCorrupt so existing
// errors.Is(err, ErrCorrupt) checks keep working.
type CorruptionError struct {
	// Path is the offending file (may be an ID when no file is involved).
	Path string
	// Reason is the typed classification, also used as the quarantine
	// file suffix.
	Reason string
	// Err is the underlying cause, when any.
	Err error
}

func (e *CorruptionError) Error() string {
	msg := fmt.Sprintf("commons: %s: corrupt (%s)", e.Path, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *CorruptionError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrCorrupt, e.Err}
	}
	return []error{ErrCorrupt}
}

// CorruptionReason extracts the typed reason from err ("decode" for
// corruption errors without one).
func CorruptionReason(err error) string {
	var ce *CorruptionError
	if errors.As(err, &ce) && ce.Reason != "" {
		return ce.Reason
	}
	return "decode"
}

// appendFrame appends to dst the frame of c past its first epochs
// entries and interactions timings: the head frame, the whole
// checkpoint, when epochs is 0. The payload is encoded in place, and on
// error dst comes back as it was.
func appendFrame(dst []byte, c *Checkpoint, epochs, interactions int) ([]byte, error) {
	name, f := headFrame, c
	if epochs > 0 {
		suffix := *c
		suffix.ID, suffix.Genome, suffix.Generation, suffix.Seed = "", "", 0, 0
		suffix.Epochs = c.Epochs[epochs:]
		suffix.InteractionSeconds = c.InteractionSeconds[interactions:]
		name, f = epochFrame, &suffix
	}
	out, start := durable.BeginSection(dst, name)
	w := durable.JSON{B: out}
	f.writeJSON(&w)
	if w.Err != nil {
		return dst, fmt.Errorf("commons: encode checkpoint %s: %w", c.ID, w.Err)
	}
	return durable.EndSection(w.B, start), nil
}

// writeJSON writes c as json.Marshal does.
func (c *Checkpoint) writeJSON(w *durable.JSON) {
	w.Object()
	w.StringOmitEmpty("id", c.ID)
	w.StringOmitEmpty("genome", c.Genome)
	w.IntOmitEmpty("generation", int64(c.Generation))
	w.IntOmitEmpty("seed", c.Seed)
	w.Int("epoch", int64(c.Epoch))
	w.BoolOmitEmpty("terminated", c.Terminated)
	w.BytesOmitEmpty("state", c.State)
	w.UintOmitEmpty("state_digest", c.StateDigest)
	lineage.WriteEpochs(w, c.Epochs)
	w.FloatOmitEmpty("sim_seconds", c.SimSeconds)
	w.FloatOmitEmpty("engine_seconds", c.EngineSeconds)
	w.IntOmitEmpty("interactions", int64(c.Interactions))
	w.FloatsOmitEmpty("interaction_seconds", c.InteractionSeconds)
	w.Time("saved_at", c.SavedAt)
	w.EndObject()
}

// EncodeCheckpoint validates c and encodes it as a one-frame file.
func EncodeCheckpoint(c *Checkpoint) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("commons: encode checkpoint: %w", err)
	}
	return appendFrame(nil, c, 0, 0)
}

// DecodeCheckpoint folds the frames of a checkpoint file into one
// Checkpoint, dropping a torn final frame. Damage anywhere else, or no
// intact frame at all, returns a *CorruptionError (never a panic); path
// only labels the error.
func DecodeCheckpoint(path string, data []byte) (*Checkpoint, error) {
	var c *Checkpoint
	off := 0
	for off < len(data) {
		rest := data[off:]
		name, payload, n, err := durable.NextSection(rest)
		if err != nil {
			claimed := claimedLen(rest)
			switch {
			case c != nil && claimed >= uint64(len(rest)):
				// The frame a kill cut short (or a power loss left
				// unwritten) ends the file: it never happened.
				c.size = int64(off)
				return c, nil
			case c == nil && !bytes.HasPrefix(headPrefix, rest[:min(len(rest), len(headPrefix))]):
				return nil, &CorruptionError{Path: path, Reason: "magic",
					Err: fmt.Errorf("no %s frame at the start", headFrame)}
			case claimed > uint64(len(rest)):
				return nil, &CorruptionError{Path: path, Reason: "truncated", Err: err}
			}
			return nil, &CorruptionError{Path: path, Reason: "checksum", Err: err}
		}
		want := epochFrame
		if c == nil {
			want = headFrame
		}
		if name != want {
			return nil, &CorruptionError{Path: path, Reason: "magic",
				Err: fmt.Errorf("frame %.64q at offset %d, want %s", name, off, want)}
		}
		var f Checkpoint
		if err := json.Unmarshal(payload, &f); err != nil {
			return nil, &CorruptionError{Path: path, Reason: "decode", Err: err}
		}
		if c == nil {
			c = &f
			err = c.Validate()
		} else {
			k := len(c.Epochs)
			c.extend(&f)
			err = c.validateFrom(k)
		}
		if err != nil {
			return nil, &CorruptionError{Path: path, Reason: "validate", Err: err}
		}
		off += n
	}
	if c == nil {
		return nil, &CorruptionError{Path: path, Reason: "truncated", Err: errors.New("empty file")}
	}
	c.size = int64(off)
	return c, nil
}

// claimedLen is the length the section at the start of data claims in
// its two length fields (MaxUint64 when those are cut off). A section
// that failed to decode with bytes after it was damaged in place; a
// final one was torn.
func claimedLen(data []byte) uint64 {
	if len(data) < 4 {
		return math.MaxUint64
	}
	name := uint64(binary.LittleEndian.Uint32(data))
	if uint64(len(data)) < 8+name {
		return math.MaxUint64
	}
	return 12 + name + uint64(binary.LittleEndian.Uint32(data[4+name:]))
}

// extend folds f, the frame that follows c, into c.
func (c *Checkpoint) extend(f *Checkpoint) {
	c.Epoch, c.Terminated = f.Epoch, f.Terminated
	c.State, c.StateDigest = f.State, f.StateDigest
	c.Epochs = append(c.Epochs, f.Epochs...)
	c.SimSeconds, c.EngineSeconds, c.Interactions = f.SimSeconds, f.EngineSeconds, f.Interactions
	c.InteractionSeconds = append(c.InteractionSeconds, f.InteractionSeconds...)
	c.SavedAt = f.SavedAt
}

func (s *Store) checkpointPath(id string) string {
	return filepath.Join(s.root, "checkpoints", id+".ckpt")
}

// PutCheckpoint replaces a model's checkpoint file with c as one frame.
func (s *Store) PutCheckpoint(c *Checkpoint) error {
	data, err := EncodeCheckpoint(c)
	if err != nil {
		return err
	}
	if err := s.replaceCheckpoint(c.ID, data); err != nil {
		return fmt.Errorf("commons: write checkpoint %s: %w", c.ID, err)
	}
	return nil
}

// replaceCheckpoint swaps id's checkpoint file for one holding data.
func (s *Store) replaceCheckpoint(id string, data []byte) error {
	return durable.AtomicWrite(s.checkpointPath(id), data, 0o644, false,
		chaos.PointCheckpointPreWrite, chaos.PointCheckpointPostWrite)
}

// GetCheckpoint loads a model checkpoint. A missing checkpoint returns
// an error satisfying errors.Is(err, fs.ErrNotExist); a tampered one
// returns a *CorruptionError (errors.Is ErrCorrupt).
func (s *Store) GetCheckpoint(id string) (*Checkpoint, error) {
	path := s.checkpointPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("commons: read checkpoint %s: %w", id, err)
	}
	return DecodeCheckpoint(path, data)
}

// DeleteCheckpoint removes a model's checkpoint; deleting a checkpoint
// that does not exist is not an error.
func (s *Store) DeleteCheckpoint(id string) error {
	err := os.Remove(s.checkpointPath(id))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("commons: delete checkpoint %s: %w", id, err)
	}
	return nil
}

// CheckpointLog is one training attempt's checkpoint file. Put writes
// the frame each epoch adds; Remove deletes the file once the model's
// record commits, Close leaves it for a resume. One attempt owns it, so
// it takes no lock; nothing is fsynced.
type CheckpointLog struct {
	store *Store
	id    string
	log   *durable.Log // opened by the next append; nil after a replace
	// epochs and interactions count the entries the file holds.
	epochs, interactions int
	// size is the file's length and whole the estimated length of the
	// same checkpoint as one frame; bare is the length of an epoch frame
	// with no entries, so an n-byte frame grows whole by n − bare.
	size, whole, bare int64
	buf               []byte
}

// CheckpointLog returns the checkpoint log of model id for one training
// attempt. A fresh attempt passes a nil from and starts the file empty;
// a resumed one passes the checkpoint GetCheckpoint returned, and its
// frames follow that read's last intact one. The file is opened by the
// first Put.
func (s *Store) CheckpointLog(id string, from *Checkpoint) *CheckpointLog {
	w := &CheckpointLog{store: s, id: id, buf: make([]byte, 0, 1024)}
	if from != nil && from.size > 0 {
		w.epochs, w.interactions = len(from.Epochs), len(from.InteractionSeconds)
		w.size, w.whole = from.size, from.size
	}
	return w
}

// Put records c, the attempt's checkpoint after its latest epoch. c must
// extend what the log holds: its Epochs and InteractionSeconds start
// with the entries of every earlier Put, which Put does not re-read.
// The new entries go out as one appended frame, unless that would make
// the file more than twice as long as c in one frame; then c replaces
// the file, as PutCheckpoint does.
func (w *CheckpointLog) Put(c *Checkpoint) error {
	if len(c.Epochs) < w.epochs || len(c.InteractionSeconds) < w.interactions {
		return fmt.Errorf("commons: checkpoint %s has fewer entries than its log", w.id)
	}
	if err := c.validateFrom(w.epochs); err != nil {
		return fmt.Errorf("commons: checkpoint %s: %w", w.id, err)
	}
	frame, err := appendFrame(w.buf[:0], c, w.epochs, w.interactions)
	if err != nil {
		return err
	}
	w.buf = frame
	n := int64(len(frame))
	grown := n // a head frame is the whole checkpoint
	if w.epochs > 0 {
		if w.bare == 0 {
			empty, err := appendFrame(nil, c, len(c.Epochs), len(c.InteractionSeconds))
			if err != nil {
				return err
			}
			w.bare = int64(len(empty))
		}
		grown = w.whole + n - w.bare
	}
	if w.size+n > 2*grown {
		if frame, err = appendFrame(w.buf[:0], c, 0, 0); err != nil {
			return err
		}
		w.buf = frame
		err = w.replace(frame)
	} else if err = w.append(frame); err == nil {
		w.size, w.whole = w.size+n, grown
	}
	if err != nil {
		return fmt.Errorf("commons: write checkpoint %s: %w", w.id, err)
	}
	w.epochs, w.interactions = len(c.Epochs), len(c.InteractionSeconds)
	return nil
}

// append writes one frame at the end of the file, cutting whatever
// follows the log's last frame when it opens.
func (w *CheckpointLog) append(frame []byte) error {
	if err := chaos.Point(chaos.PointCheckpointPreWrite); err != nil {
		return err
	}
	if w.log == nil {
		log, err := durable.OpenLog(w.store.checkpointPath(w.id), w.size)
		if err != nil {
			return err
		}
		w.log = log
	}
	if err := w.log.Append(frame); err != nil {
		return err
	}
	return chaos.Point(chaos.PointCheckpointPostWrite)
}

// replace swaps the file for one holding the single frame data.
func (w *CheckpointLog) replace(data []byte) error {
	if err := w.store.replaceCheckpoint(w.id, data); err != nil {
		return err
	}
	// The open descriptor, if any, holds the file the rename replaced.
	err := w.Close()
	w.size, w.whole = int64(len(data)), int64(len(data))
	return err
}

// Close closes the file, leaving it for a resumed attempt.
func (w *CheckpointLog) Close() error {
	err := w.log.Abandon()
	w.log = nil
	return err
}

// Remove closes and deletes the file: the model's record has committed.
func (w *CheckpointLog) Remove() error {
	err := w.Close()
	if derr := w.store.DeleteCheckpoint(w.id); err == nil {
		err = derr
	}
	return err
}

// Checkpoints lists the model IDs with a stored checkpoint, sorted.
func (s *Store) Checkpoints() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "checkpoints"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("commons: list checkpoints: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			ids = append(ids, strings.TrimSuffix(e.Name(), ".ckpt"))
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// QuarantineDir is where corrupt files are moved, under the store root.
const QuarantineDir = ".corrupt"

// quarantine moves a corrupt file into <root>/.corrupt/<base>.<reason>,
// suffixing a counter when the name is taken, and returns the new path.
func (s *Store) quarantine(path, reason string) (string, error) {
	if reason == "" {
		reason = "corrupt"
	}
	dir := filepath.Join(s.root, QuarantineDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("commons: create quarantine dir: %w", err)
	}
	dest := filepath.Join(dir, filepath.Base(path)+"."+reason)
	for i := 1; ; i++ {
		if _, err := os.Lstat(dest); os.IsNotExist(err) {
			break
		}
		dest = filepath.Join(dir, fmt.Sprintf("%s.%s.%d", filepath.Base(path), reason, i))
	}
	if err := os.Rename(path, dest); err != nil {
		return "", fmt.Errorf("commons: quarantine %s: %w", path, err)
	}
	return dest, nil
}

// QuarantineRecord moves a corrupt record out of records/ into the
// quarantine directory so replay and analytics stop tripping over it;
// the typed reason becomes the file suffix. It returns the destination.
func (s *Store) QuarantineRecord(id, reason string) (string, error) {
	if err := checkID(id); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantine(s.recordPath(id), reason)
}

// QuarantineCheckpoint moves a corrupt checkpoint into the quarantine
// directory and returns the destination.
func (s *Store) QuarantineCheckpoint(id, reason string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantine(s.checkpointPath(id), reason)
}
