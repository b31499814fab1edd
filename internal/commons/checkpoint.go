package commons

// Model-level checkpoints: per-model training progress persisted
// crash-safely so -resume continues *inside* an interrupted generation
// instead of retraining it from epoch 1.
//
// checkpoints/<id>.ckpt is one durable section (frame), "a4ck.model",
// holding a whole JSON Checkpoint. Every epoch replaces the file through
// durable.AtomicWrite, so a kill leaves the previous epoch's file or the
// new one, and costs at most the epoch in training. Anything but exactly
// one intact frame is corrupt and gets quarantined: a file cut short or
// damaged in place, and a file of several frames (the per-epoch frame
// log of earlier builds).

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"a4nn/internal/chaos"
	"a4nn/internal/durable"
	"a4nn/internal/lineage"
)

// frameName names the one frame of a checkpoint file.
const frameName = "a4ck.model"

// framePrefix is how every checkpoint file starts: the frame's name
// length and name.
var framePrefix = durable.AppendSection(nil, frameName, nil)[:4+len(frameName)]

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
}

// Validate reports the first problem with the checkpoint, or nil.
func (c *Checkpoint) Validate() error {
	if c.ID == "" || c.Genome == "" {
		return errors.New("checkpoint needs ID and Genome")
	}
	if c.Epoch < 1 {
		return fmt.Errorf("checkpoint epoch %d must be ≥ 1", c.Epoch)
	}
	if len(c.Epochs) != c.Epoch {
		return fmt.Errorf("checkpoint has %d epoch entries for epoch %d", len(c.Epochs), c.Epoch)
	}
	for i, e := range c.Epochs {
		if e.Epoch != i+1 {
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

// appendFrame appends c's frame to dst, its payload encoded in place;
// on error dst comes back as it was.
func appendFrame(dst []byte, c *Checkpoint) ([]byte, error) {
	out, start := durable.BeginSection(dst, frameName)
	w := durable.JSON{B: out}
	c.writeJSON(&w)
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

// EncodeCheckpoint validates c and encodes it as a checkpoint file.
func EncodeCheckpoint(c *Checkpoint) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("commons: encode checkpoint: %w", err)
	}
	return appendFrame(nil, c)
}

// DecodeCheckpoint decodes a checkpoint file, which must be exactly one
// intact frame. Anything else returns a *CorruptionError (never a
// panic): "truncated" for a file that ends inside its frame, "checksum"
// for a frame damaged in place, "magic" for one that is not a checkpoint
// frame or has bytes after it. path only labels the error.
func DecodeCheckpoint(path string, data []byte) (*Checkpoint, error) {
	corrupt := func(reason string, err error) (*Checkpoint, error) {
		return nil, &CorruptionError{Path: path, Reason: reason, Err: err}
	}
	if !bytes.HasPrefix(data, framePrefix) {
		if bytes.HasPrefix(framePrefix, data) {
			return corrupt("truncated", fmt.Errorf("%d-byte file", len(data)))
		}
		return corrupt("magic", fmt.Errorf("no %s frame at the start", frameName))
	}
	// A write cut short leaves a payload length (plus its CRC) that runs
	// past the end of the file.
	if rest := data[len(framePrefix):]; len(rest) < 4 || uint64(binary.LittleEndian.Uint32(rest))+8 > uint64(len(rest)) {
		return corrupt("truncated", fmt.Errorf("%d-byte file ends inside its frame", len(data)))
	}
	_, payload, n, err := durable.NextSection(data)
	if err != nil {
		return corrupt("checksum", err)
	}
	if n != len(data) {
		return corrupt("magic", fmt.Errorf("%d bytes after the %s frame", len(data)-n, frameName))
	}
	c := new(Checkpoint)
	if err := json.Unmarshal(payload, c); err != nil {
		return corrupt("decode", err)
	}
	if err := c.Validate(); err != nil {
		return corrupt("validate", err)
	}
	return c, nil
}

func (s *Store) checkpointPath(id string) string {
	return filepath.Join(s.root, "checkpoints", id+".ckpt")
}

// PutCheckpoint replaces a model's checkpoint file with c: a kill
// leaves the previous file or this one. Nothing is fsynced.
func (s *Store) PutCheckpoint(c *Checkpoint) error {
	data, err := EncodeCheckpoint(c)
	if err != nil {
		return err
	}
	if err := durable.AtomicWrite(s.checkpointPath(c.ID), data, 0o644, false,
		chaos.PointCheckpointPreWrite, chaos.PointCheckpointPostWrite); err != nil {
		return fmt.Errorf("commons: write checkpoint %s: %w", c.ID, err)
	}
	return nil
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
