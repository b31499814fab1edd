package core

// Mid-training resume: advancing a freshly built model to the epoch its
// crashed attempt reached. A Resumable model restores the state of its
// checkpoint file, digest-verified. Any other model keeps no file: it
// replays TrainEpoch from its seed through its journaled epochs, each
// held to the journaled bits. A checkpoint that lies about its model is
// not trusted: the model trains fresh.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"a4nn/internal/commons"
	"a4nn/internal/lineage"
	"a4nn/internal/predict"
	"a4nn/internal/sched"
)

// Resumable is implemented by Trainables that can restore serialized
// state directly (e.g. real gradient-descent models reloading weights).
// Only their models keep a checkpoint file; the rest resume by replay
// of their journaled epochs.
type Resumable interface {
	// ResumeState snapshots what RestoreState needs to continue training
	// bit for bit: SaveState's weights and any optimizer state.
	ResumeState() ([]byte, error)
	// RestoreState loads the state produced by ResumeState after the
	// given number of completed epochs.
	RestoreState(state []byte, epoch int) error
}

// ResumeModel restores a freshly built Resumable model (same genome, same
// seed as the checkpointed one) to cp.Epoch from the checkpoint's state.
// A failure — a model that is not Resumable, a state that does not match
// its digest, a restore error — means the checkpoint cannot be trusted;
// the caller quarantines it and trains fresh.
func ResumeModel(m Trainable, cp *commons.Checkpoint) error {
	rs, ok := m.(Resumable)
	if !ok || len(cp.State) == 0 {
		return fmt.Errorf("core: %s has no state to restore", cp.ID)
	}
	if cp.StateDigest != 0 && commons.StateDigest(cp.State) != cp.StateDigest {
		return &commons.CorruptionError{Path: cp.ID, Reason: "digest",
			Err: errors.New("checkpoint state does not match its digest")}
	}
	if err := rs.RestoreState(cp.State, cp.Epoch); err != nil {
		return fmt.Errorf("core: restore %s at epoch %d: %w", cp.ID, cp.Epoch, err)
	}
	return nil
}

// replayJournal advances a freshly built model through chain, its
// journaled epochs 1..k, under an orchestrator with no instruments, no
// journal and an engine of cfg (nil: none) with no metrics, so nothing
// the journal holds is emitted or counted again. It returns the
// checkpoint the epochs amount to: the journaled entries themselves,
// timings re-measured. A replayed validation accuracy or loss other than
// the journaled bits, or a convergence before epoch k, is an error: the
// journal does not describe this model. The replay records no spans
// either, so it runs under its own context: a cancellation is seen at
// the first epoch trained after it.
func replayJournal(m Trainable, cfg *predict.Config, dev sched.Device, samples int, id string, chain []lineage.EpochEntry) (*commons.Checkpoint, error) {
	orch := &Orchestrator{MaxEpochs: len(chain)}
	if cfg != nil {
		orch.Engine, _ = predict.NewEngine(*cfg)
	}
	rec := &lineage.Record{}
	out, err := orch.TrainModel(context.Background(), m, dev, samples, rec)
	if err != nil {
		return nil, err
	}
	cp := &commons.Checkpoint{Epoch: len(chain), Terminated: out.Terminated, Epochs: chain,
		EngineSeconds: out.EngineSeconds, Interactions: out.Interactions,
		InteractionSeconds: out.InteractionSeconds, SavedAt: time.Now()}
	for i, e := range chain {
		if i == len(rec.Epochs) || math.Float64bits(rec.Epochs[i].ValAccuracy) != math.Float64bits(e.ValAccuracy) ||
			math.Float64bits(rec.Epochs[i].TrainLoss) != math.Float64bits(e.TrainLoss) {
			return nil, fmt.Errorf("core: epoch %d of %s replays other than its journal", e.Epoch, id)
		}
		cp.SimSeconds += e.SimSeconds
	}
	return cp, nil
}
