// Package lineage records the complete training lifespan of every neural
// network the workflow touches (paper §2.3): architecture and genome,
// per-epoch training/validation fitness, the prediction engine's
// prediction history, epoch times, FLOPs, engine parameters, and
// termination state. One Record is the "record trail" the paper uploads
// to its Dataverse data commons; internal/commons persists them.
package lineage

import (
	"fmt"
	"math"
	"slices"
	"time"

	"a4nn/internal/durable"
)

// EngineParams captures the prediction-engine configuration active during
// a run (Table 1), stored with every record for reproducibility.
type EngineParams struct {
	Family     string  `json:"family"`
	CMin       int     `json:"c_min"`
	EPred      int     `json:"e_pred"`
	N          int     `json:"n"`
	R          float64 `json:"r"`
	MinFitness float64 `json:"min_fitness"`
	MaxFitness float64 `json:"max_fitness"`
}

// EpochEntry is one epoch of the record trail.
type EpochEntry struct {
	// Epoch is 1-based.
	Epoch int `json:"epoch"`
	// TrainLoss is the mean training loss of the epoch.
	TrainLoss float64 `json:"train_loss"`
	// TrainAccuracy and ValAccuracy are percentages; TrainAccuracy is the
	// running accuracy of the epoch's training batches, each scored by its
	// train-mode forward pass before its optimizer step.
	TrainAccuracy float64 `json:"train_accuracy"`
	ValAccuracy   float64 `json:"val_accuracy"`
	// Prediction is the engine's fitness prediction made after this
	// epoch; NaN-free: HasPrediction marks presence.
	Prediction    float64 `json:"prediction"`
	HasPrediction bool    `json:"has_prediction"`
	// SimSeconds is the epoch's simulated duration on its device.
	SimSeconds float64 `json:"sim_seconds"`
}

// Record is the full record trail of one NN.
type Record struct {
	// ID is the genome hash; it identifies the architecture.
	ID string `json:"id"`
	// Genome is the bit-string encoding.
	Genome        string `json:"genome"`
	NodesPerPhase int    `json:"nodes_per_phase"`
	// Generation is the NAS generation that created the network.
	Generation int `json:"generation"`
	// Architecture is the decoded layer-by-layer description.
	Architecture string `json:"architecture"`
	NumParams    int    `json:"num_params"`
	FLOPs        int64  `json:"flops"`
	// Beam names the dataset variant (low/medium/high).
	Beam string `json:"beam"`
	// DeviceID is the accelerator the network trained on.
	DeviceID int `json:"device_id"`
	// Attempt is the 1-based dispatch attempt that produced this record;
	// values above 1 mean earlier attempts were lost to faults and the
	// scheduler retried the network (possibly on another device).
	Attempt int `json:"attempt,omitempty"`
	// SlowFactor, when set (> 1), marks that the device was a straggler
	// during this training and epoch costs were inflated accordingly.
	SlowFactor float64 `json:"slow_factor,omitempty"`

	Epochs []EpochEntry `json:"epochs"`

	// Terminated reports early termination by the prediction engine;
	// TerminationEpoch is the paper's e_t (= len(Epochs) when terminated).
	Terminated       bool `json:"terminated"`
	TerminationEpoch int  `json:"termination_epoch"`
	// FinalFitness is the fitness reported to the NAS: the converged
	// prediction when terminated early, else the last validation accuracy.
	FinalFitness float64 `json:"final_fitness"`

	Engine *EngineParams `json:"engine,omitempty"`
	// CreatedAt timestamps the record.
	CreatedAt time.Time `json:"created_at"`
}

// Validate reports the first structural problem with the record, or nil.
func (r *Record) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("lineage: record has no ID")
	}
	if r.Genome == "" {
		return fmt.Errorf("lineage: record %s has no genome", r.ID)
	}
	for i, e := range r.Epochs {
		if e.Epoch != i+1 {
			return fmt.Errorf("lineage: record %s epoch %d labelled %d", r.ID, i+1, e.Epoch)
		}
		if !Finite(e.TrainLoss, e.TrainAccuracy, e.ValAccuracy, e.Prediction, e.SimSeconds) {
			return fmt.Errorf("lineage: record %s epoch %d has a non-finite metric", r.ID, i+1)
		}
	}
	if !Finite(r.FinalFitness, r.SlowFactor) {
		return fmt.Errorf("lineage: record %s has a non-finite fitness or slow factor", r.ID)
	}
	if r.Terminated && r.TerminationEpoch != len(r.Epochs) {
		return fmt.Errorf("lineage: record %s terminated at %d but has %d epochs", r.ID, r.TerminationEpoch, len(r.Epochs))
	}
	return nil
}

// Finite reports whether every value is neither NaN nor infinite: a
// value a record trail (and the JSON it travels in) can hold.
func Finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Clone returns a copy of r that shares no epochs with it (nil for nil).
func (r *Record) Clone() *Record {
	if r == nil {
		return nil
	}
	c := *r
	c.Epochs = slices.Clone(r.Epochs)
	return &c
}

// FitnessHistory returns the per-epoch validation accuracies (the paper's H).
func (r *Record) FitnessHistory() []float64 {
	h := make([]float64, len(r.Epochs))
	for i, e := range r.Epochs {
		h[i] = e.ValAccuracy
	}
	return h
}

// PredictionHistory returns the engine's predictions in order (the paper's P).
func (r *Record) PredictionHistory() []float64 {
	var p []float64
	for _, e := range r.Epochs {
		if e.HasPrediction {
			p = append(p, e.Prediction)
		}
	}
	return p
}

// EpochsTrained returns the number of epochs actually trained.
func (r *Record) EpochsTrained() int { return len(r.Epochs) }

// SimSeconds sums the simulated duration of all epochs.
func (r *Record) SimSeconds() float64 {
	s := 0.0
	for _, e := range r.Epochs {
		s += e.SimSeconds
	}
	return s
}

// WriteJSON writes r as the member k of w's open object, field by field
// in struct order, as encoding/json writes a *Record. A model_done event
// carries its record this way with nil Epochs: the epochs travel in the
// model's epoch events.
func (r *Record) WriteJSON(w *durable.JSON, k string) {
	w.ObjectField(k)
	w.String("id", r.ID)
	w.String("genome", r.Genome)
	w.Int("nodes_per_phase", int64(r.NodesPerPhase))
	w.Int("generation", int64(r.Generation))
	w.String("architecture", r.Architecture)
	w.Int("num_params", int64(r.NumParams))
	w.Int("flops", r.FLOPs)
	w.String("beam", r.Beam)
	w.Int("device_id", int64(r.DeviceID))
	w.IntOmitEmpty("attempt", int64(r.Attempt))
	w.FloatOmitEmpty("slow_factor", r.SlowFactor)
	WriteEpochs(w, r.Epochs)
	w.Bool("terminated", r.Terminated)
	w.Int("termination_epoch", int64(r.TerminationEpoch))
	w.Float("final_fitness", r.FinalFitness)
	if p := r.Engine; p != nil {
		w.ObjectField("engine")
		w.String("family", p.Family)
		w.Int("c_min", int64(p.CMin))
		w.Int("e_pred", int64(p.EPred))
		w.Int("n", int64(p.N))
		w.Float("r", p.R)
		w.Float("min_fitness", p.MinFitness)
		w.Float("max_fitness", p.MaxFitness)
		w.EndObject()
	}
	w.Time("created_at", r.CreatedAt)
	w.EndObject()
}

// WriteEpochs writes epochs as the "epochs" member of w's open object,
// null when nil, as encoding/json writes an []EpochEntry.
func WriteEpochs(w *durable.JSON, epochs []EpochEntry) {
	if epochs == nil {
		w.Null("epochs")
		return
	}
	w.ArrayField("epochs")
	for i := range epochs {
		e := &epochs[i]
		w.Object()
		w.Int("epoch", int64(e.Epoch))
		w.Float("train_loss", e.TrainLoss)
		w.Float("train_accuracy", e.TrainAccuracy)
		w.Float("val_accuracy", e.ValAccuracy)
		w.Float("prediction", e.Prediction)
		w.Bool("has_prediction", e.HasPrediction)
		w.Float("sim_seconds", e.SimSeconds)
		w.EndObject()
	}
	w.EndArray()
}
