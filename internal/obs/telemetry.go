package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Span names of the instrumented workflow: a generation span encloses
// its task spans, each of which encloses the model's epoch spans.
const (
	SpanGeneration = "generation"
	SpanTask       = "task"
	SpanEpoch      = "epoch"
)

// GenTelemetry aggregates one generation: the scheduler accounting from
// its generation_end event plus the training/prediction accounting summed
// over the model_done events of its models.
type GenTelemetry struct {
	Generation int `json:"generation"`
	// Tasks counts the generation's training tasks.
	Tasks int `json:"tasks"`
	// WallSeconds, BusySeconds, and IdleSeconds are the generation's
	// simulated makespan, summed device busy time, and barrier idle time.
	WallSeconds float64 `json:"wall_seconds"`
	BusySeconds float64 `json:"busy_seconds"`
	IdleSeconds float64 `json:"idle_seconds"`
	// Utilisation is BusySeconds / (BusySeconds + IdleSeconds); 0 when
	// the generation did no work.
	Utilisation float64 `json:"utilisation"`
	// MeanQueueWaitSeconds averages, across task dispatches, the
	// simulated time each task waited behind the FIFO queue before its
	// device picked it up.
	MeanQueueWaitSeconds float64 `json:"mean_queue_wait_seconds"`
	// Retries and Faults are the generation's re-dispatches and fault
	// events.
	Retries int `json:"retries"`
	Faults  int `json:"faults"`
	// EpochsTrained and EpochsSaved sum the epochs the generation's
	// models actually trained and the epochs the prediction engine cut
	// from their full budgets. Terminated counts early-stopped models.
	EpochsTrained int `json:"epochs_trained"`
	EpochsSaved   int `json:"epochs_saved"`
	Terminated    int `json:"terminated"`
}

// Telemetry is the per-run aggregate loaded back from a run's commons
// directory — the analyzer's view of the event journal and metrics
// snapshot the workflow left there.
type Telemetry struct {
	// Spans is the number of journal events folded.
	Spans int `json:"spans"`
	// Generations holds one aggregate per NAS generation, ascending.
	Generations []GenTelemetry `json:"generations"`
	// EpochsTrained, EpochsSaved and Terminated are run-level sums.
	EpochsTrained int `json:"epochs_trained"`
	EpochsSaved   int `json:"epochs_saved"`
	Terminated    int `json:"terminated"`
	// Metrics is the final registry snapshot, when metrics.json was
	// present (zero-valued otherwise).
	Metrics Snapshot `json:"metrics"`
}

// LoadTelemetry loads a run's telemetry from its directory (normally the
// commons root): the per-generation table folded from EventsFile and,
// when present, the final metrics snapshot from MetricsFile.
func LoadTelemetry(dir string) (*Telemetry, error) {
	events, err := ReadEvents(filepath.Join(dir, EventsFile))
	if err != nil {
		return nil, err
	}
	t := AggregateEvents(events)
	if data, err := os.ReadFile(filepath.Join(dir, MetricsFile)); err == nil {
		if err := json.Unmarshal(data, &t.Metrics); err != nil {
			return nil, fmt.Errorf("obs: %s: %w", MetricsFile, err)
		}
	}
	return t, nil
}

// AggregateEvents folds a run's journal into per-generation telemetry.
// A killed and resumed run journals some generations and models more than
// once, so the fold keys by generation and by model ID: the last
// generation_end of a generation supplies its scheduler accounting, and
// the last model_done of a model its epochs and termination (a replayed
// model emits none, so the line of the process that trained it stands).
// A model's saved epochs are the budget of the run_start before its line
// minus the epochs it trained.
func AggregateEvents(events []Event) *Telemetry {
	t := &Telemetry{Spans: len(events)}
	gens := make(map[int]*GenTelemetry)
	models := make(map[string]GenTelemetry) // one model's share of its generation
	budget := 0
	for _, e := range events {
		switch e.Type {
		case EventRunStart:
			budget = e.Epochs
		case EventGenerationEnd:
			g := &GenTelemetry{
				Generation:           e.Gen,
				Tasks:                count(e.Tasks),
				WallSeconds:          e.WallSeconds,
				IdleSeconds:          e.IdleSeconds,
				MeanQueueWaitSeconds: e.MeanQueueWaitSeconds,
				Retries:              count(e.Retries),
				Faults:               count(e.Faults),
			}
			for _, b := range e.DeviceBusy {
				g.BusySeconds += b
			}
			gens[e.Gen] = g
		case EventModelDone:
			m := GenTelemetry{
				Generation:    e.Gen,
				EpochsTrained: count(e.Epochs),
				EpochsSaved:   count(budget - e.Epochs),
			}
			if e.Terminated {
				m.Terminated = 1
			}
			models[e.Model] = m
		}
	}
	for _, m := range models {
		g, ok := gens[m.Generation]
		if !ok {
			g = &GenTelemetry{Generation: m.Generation}
			gens[m.Generation] = g
		}
		g.EpochsTrained += m.EpochsTrained
		g.EpochsSaved += m.EpochsSaved
		g.Terminated += m.Terminated
	}
	for _, g := range gens {
		if total := g.BusySeconds + g.IdleSeconds; total > 0 {
			g.Utilisation = g.BusySeconds / total
		}
		t.Generations = append(t.Generations, *g)
	}
	sort.Slice(t.Generations, func(i, j int) bool {
		return t.Generations[i].Generation < t.Generations[j].Generation
	})
	for _, g := range t.Generations {
		t.EpochsTrained += g.EpochsTrained
		t.EpochsSaved += g.EpochsSaved
		t.Terminated += g.Terminated
	}
	return t
}

// count clamps a count read from the journal into [0, MaxInt32], so no
// corrupt or hostile line can turn a sum negative or overflow it.
func count(n int) int {
	return min(max(n, 0), math.MaxInt32)
}
