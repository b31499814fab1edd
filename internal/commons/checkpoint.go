package commons

// Model-level checkpoints: per-model training progress persisted
// crash-safely so -resume continues *inside* an interrupted generation
// instead of retraining it from epoch 1. A checkpoint is written after
// every epoch (when enabled), deleted once the model's final record
// commits, and framed with a magic, a version, and a CRC so a torn or
// bit-flipped file is detected — and quarantined — rather than trusted.
//
// Frame layout (little-endian):
//
//	offset  size  field
//	0       4     magic "A4CK"
//	4       1     version (currently 1)
//	5       4     payload length
//	9       4     CRC-32 (IEEE) of the payload
//	13      n     JSON payload (Checkpoint)

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
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

var ckptMagic = [4]byte{'A', '4', 'C', 'K'}

const (
	ckptVersion    = 1
	ckptHeaderSize = 13
)

// Checkpoint is one model's mid-training progress: everything needed to
// rebuild the model (Genome + the original Seed), fast-forward or
// restore its state (State + StateDigest), rehydrate the prediction
// engine (the per-epoch entries carry H and P), and resume the lineage
// record and resource accounting exactly where the crash cut them off.
type Checkpoint struct {
	// ID is the lineage record ID the checkpoint belongs to.
	ID string `json:"id"`
	// Genome is the model's encoded architecture; a mismatch with the
	// scheduled genome marks the checkpoint stale and it is ignored.
	Genome string `json:"genome"`
	// Generation is the NAS generation the model belongs to.
	Generation int `json:"generation"`
	// Seed is the seed the model was originally built with. Resume must
	// reuse it — not the relaunched run's device-derived seed — so the
	// continued training reproduces the fault-free trajectory.
	Seed int64 `json:"seed"`
	// Epoch is the number of completed training epochs.
	Epoch int `json:"epoch"`
	// Terminated records that the prediction engine had already declared
	// convergence; resume then skips straight to the final fitness.
	Terminated bool `json:"terminated,omitempty"`
	// State is the model's serialized state after Epoch epochs.
	State []byte `json:"state,omitempty"`
	// StateDigest is the FNV-1a digest of State, re-verified against the
	// restored (or fast-forwarded) model before training continues.
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

// CorruptionError is the typed decode failure of a framed file: Reason
// classifies what broke ("magic", "version", "truncated", "length",
// "checksum", "decode", "validate", "digest"). It unwraps to ErrCorrupt
// so existing errors.Is(err, ErrCorrupt) checks keep working.
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

// EncodeCheckpoint validates and frames a checkpoint.
func EncodeCheckpoint(c *Checkpoint) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("commons: encode checkpoint: %w", err)
	}
	payload, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("commons: encode checkpoint %s: %w", c.ID, err)
	}
	buf := make([]byte, ckptHeaderSize+len(payload))
	copy(buf[:4], ckptMagic[:])
	buf[4] = ckptVersion
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[9:13], crc32.ChecksumIEEE(payload))
	copy(buf[ckptHeaderSize:], payload)
	return buf, nil
}

// DecodeCheckpoint parses a framed checkpoint. Any torn, truncated, or
// bit-flipped input returns a *CorruptionError (never a panic); path
// only labels the error.
func DecodeCheckpoint(path string, data []byte) (*Checkpoint, error) {
	if len(data) < ckptHeaderSize {
		return nil, &CorruptionError{Path: path, Reason: "truncated",
			Err: fmt.Errorf("%d bytes, header needs %d", len(data), ckptHeaderSize)}
	}
	if [4]byte(data[:4]) != ckptMagic {
		return nil, &CorruptionError{Path: path, Reason: "magic",
			Err: fmt.Errorf("bad magic %q", data[:4])}
	}
	if v := data[4]; v != ckptVersion {
		return nil, &CorruptionError{Path: path, Reason: "version",
			Err: fmt.Errorf("unsupported version %d", v)}
	}
	n := binary.LittleEndian.Uint32(data[5:9])
	payload := data[ckptHeaderSize:]
	if uint64(n) > uint64(len(payload)) {
		return nil, &CorruptionError{Path: path, Reason: "truncated",
			Err: fmt.Errorf("payload %d of %d bytes", len(payload), n)}
	}
	if uint64(n) < uint64(len(payload)) {
		return nil, &CorruptionError{Path: path, Reason: "length",
			Err: fmt.Errorf("%d trailing bytes", len(payload)-int(n))}
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(data[9:13]) {
		return nil, &CorruptionError{Path: path, Reason: "checksum", Err: nil}
	}
	var c Checkpoint
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, &CorruptionError{Path: path, Reason: "decode", Err: err}
	}
	if err := c.Validate(); err != nil {
		return nil, &CorruptionError{Path: path, Reason: "validate", Err: err}
	}
	return &c, nil
}

func (s *Store) checkpointPath(id string) string {
	return filepath.Join(s.root, "checkpoints", id+".ckpt")
}

// PutCheckpoint atomically writes (or replaces) a model checkpoint.
func (s *Store) PutCheckpoint(c *Checkpoint) error {
	data, err := EncodeCheckpoint(c)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := durable.AtomicWrite(s.checkpointPath(c.ID), data, 0o644, false,
		chaos.PointCheckpointPreRename, chaos.PointCheckpointPostRename); err != nil {
		return fmt.Errorf("commons: write checkpoint %s: %w", c.ID, err)
	}
	return nil
}

// GetCheckpoint loads a model checkpoint. A missing checkpoint returns
// an error satisfying errors.Is(err, fs.ErrNotExist); a torn or
// tampered one returns a *CorruptionError (errors.Is ErrCorrupt).
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
