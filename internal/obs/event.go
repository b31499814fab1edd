package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"a4nn/internal/chaos"
	"a4nn/internal/durable"
	"a4nn/internal/lineage"
)

// EventsFile holds the run's event journal as JSON Lines, appended
// next to the lineage records in the commons directory.
const EventsFile = "events.jsonl"

// Event types emitted by the workflow. Consumers switch on Type; the
// remaining Event fields are a union and only the ones meaningful for
// the type are set (zero values are omitted from the JSON encoding, so
// a missing field reads as 0/""/false — generation 0 arrives without a
// "gen" key).
const (
	EventRunStart         = "run_start"
	EventRunEnd           = "run_end"
	EventGenerationStart  = "generation_start"
	EventGenerationEnd    = "generation_end"
	EventTaskDispatch     = "task_dispatch"
	EventTaskRetry        = "task_retry"
	EventTaskFault        = "task_fault"
	EventStraggler        = "straggler"
	EventEpoch            = "epoch"
	EventModelDone        = "model_done"
	EventPredictConverge  = "predict_converge"
	EventPredictTerminate = "predict_terminate"
	EventParetoUpdate     = "pareto_update"
	EventAlert            = "alert"
	EventAlertResolved    = "alert_resolved"
	// EventModelResume marks a model continuing from a mid-training
	// checkpoint after a crash; Epoch is the checkpointed epoch count.
	EventModelResume = "model_resume"
	// EventRecovery reports a corruption-recovery action (a quarantined
	// file, a stale checkpoint, swept temp files; journals of earlier
	// builds also hold lost records); Reason carries the typed reason.
	EventRecovery = "recovery"
	// EventRuntimeSample carries process runtime metrics (goroutines,
	// heap, GC pause) so a follower in another process can health-check
	// the producer.
	EventRuntimeSample = "runtime_sample"
)

// ParetoPoint is one model on the current Pareto front, carried by
// pareto_update events.
type ParetoPoint struct {
	ID       string  `json:"id"`
	Accuracy float64 `json:"acc"`
	MFLOPs   float64 `json:"mflops"`
}

// Event is one structured record in the run's journal. Seq is assigned
// by the journal, strictly increasing from 1; Time is unix nanoseconds
// at emission.
type Event struct {
	Seq  uint64 `json:"seq"`
	Time int64  `json:"t"`
	Type string `json:"type"`

	Gen     int    `json:"gen,omitempty"`
	Task    int    `json:"task,omitempty"`
	Device  int    `json:"device,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Model   string `json:"model,omitempty"`
	Epoch   int    `json:"epoch,omitempty"`
	Tasks   int    `json:"tasks,omitempty"`
	Devices int    `json:"devices,omitempty"`

	// An epoch event carries its model's whole lineage.EpochEntry:
	// ValAcc, Loss, TrainAcc, SimSeconds and, when HasPred is set, the
	// engine's prediction in Predicted.
	ValAcc      float64 `json:"val_acc,omitempty"`
	Loss        float64 `json:"loss,omitempty"`
	TrainAcc    float64 `json:"train_acc,omitempty"`
	Fitness     float64 `json:"fitness,omitempty"`
	Predicted   float64 `json:"predicted,omitempty"`
	Actual      float64 `json:"actual,omitempty"`
	Epochs      int     `json:"epochs,omitempty"`
	SavedEpochs int     `json:"saved_epochs,omitempty"`
	Terminated  bool    `json:"terminated,omitempty"`
	HasPred     bool    `json:"has_prediction,omitempty"`

	SimSeconds  float64 `json:"sim_seconds,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	IdleSeconds float64 `json:"idle_seconds,omitempty"`
	LostSeconds float64 `json:"lost_seconds,omitempty"`
	// MeanQueueWaitSeconds is a generation_end's mean simulated time a
	// dispatched task waited behind the FIFO queue.
	MeanQueueWaitSeconds float64   `json:"mean_queue_wait_seconds,omitempty"`
	DeviceBusy           []float64 `json:"device_busy,omitempty"`
	Retries              int       `json:"retries,omitempty"`
	Faults               int       `json:"faults,omitempty"`
	SlowFactor           float64   `json:"slow_factor,omitempty"`
	Err                  string    `json:"err,omitempty"`

	Front []ParetoPoint `json:"front,omitempty"`

	// Record is a model_done event's record trail less its epochs (nil):
	// with the model's epoch events before it, the event commits it.
	Record *lineage.Record `json:"record,omitempty"`

	// Alert events (emitted by the health engine; see internal/health).
	AlertID  string `json:"alert,omitempty"`
	Monitor  string `json:"monitor,omitempty"`
	Severity string `json:"severity,omitempty"`
	Msg      string `json:"msg,omitempty"`
	Count    int    `json:"count,omitempty"`

	// Recovery events.
	Reason string `json:"reason,omitempty"`
	Path   string `json:"path,omitempty"`

	// Runtime-sample events. RSSBytes and FDs are OS-level readings
	// (resident set size and open file descriptors); zero when the
	// platform offers no /proc-style view of the process.
	Goroutines int     `json:"goroutines,omitempty"`
	HeapBytes  uint64  `json:"heap_bytes,omitempty"`
	GCPauseSec float64 `json:"gc_pause_s,omitempty"`
	RSSBytes   uint64  `json:"rss_bytes,omitempty"`
	FDs        int     `json:"fds,omitempty"`
}

// EpochEvent is the epoch event that journals entry e of model's record
// trail; model belongs to generation gen.
func EpochEvent(model string, gen int, e *lineage.EpochEntry) Event {
	return Event{
		Type:       EventEpoch,
		Gen:        gen,
		Model:      model,
		Epoch:      e.Epoch,
		ValAcc:     e.ValAccuracy,
		Loss:       e.TrainLoss,
		TrainAcc:   e.TrainAccuracy,
		Predicted:  e.Prediction,
		HasPred:    e.HasPrediction,
		SimSeconds: e.SimSeconds,
	}
}

// EpochEntry returns the record-trail entry an epoch event journals.
func (e *Event) EpochEntry() lineage.EpochEntry {
	return lineage.EpochEntry{
		Epoch:         e.Epoch,
		TrainLoss:     e.Loss,
		TrainAccuracy: e.TrainAcc,
		ValAccuracy:   e.ValAcc,
		Prediction:    e.Predicted,
		HasPrediction: e.HasPred,
		SimSeconds:    e.SimSeconds,
	}
}

// AppendJSON appends e's journal line, the bytes json.Marshal writes, to
// dst. On error dst comes back as it was.
func (e *Event) AppendJSON(dst []byte) ([]byte, error) {
	w := durable.JSON{B: dst}
	w.Object()
	w.Uint("seq", e.Seq)
	w.Int("t", e.Time)
	w.String("type", e.Type)
	w.IntOmitEmpty("gen", int64(e.Gen))
	w.IntOmitEmpty("task", int64(e.Task))
	w.IntOmitEmpty("device", int64(e.Device))
	w.IntOmitEmpty("attempt", int64(e.Attempt))
	w.StringOmitEmpty("model", e.Model)
	w.IntOmitEmpty("epoch", int64(e.Epoch))
	w.IntOmitEmpty("tasks", int64(e.Tasks))
	w.IntOmitEmpty("devices", int64(e.Devices))
	w.FloatOmitEmpty("val_acc", e.ValAcc)
	w.FloatOmitEmpty("loss", e.Loss)
	w.FloatOmitEmpty("train_acc", e.TrainAcc)
	w.FloatOmitEmpty("fitness", e.Fitness)
	w.FloatOmitEmpty("predicted", e.Predicted)
	w.FloatOmitEmpty("actual", e.Actual)
	w.IntOmitEmpty("epochs", int64(e.Epochs))
	w.IntOmitEmpty("saved_epochs", int64(e.SavedEpochs))
	w.BoolOmitEmpty("terminated", e.Terminated)
	w.BoolOmitEmpty("has_prediction", e.HasPred)
	w.FloatOmitEmpty("sim_seconds", e.SimSeconds)
	w.FloatOmitEmpty("wall_seconds", e.WallSeconds)
	w.FloatOmitEmpty("idle_seconds", e.IdleSeconds)
	w.FloatOmitEmpty("lost_seconds", e.LostSeconds)
	w.FloatOmitEmpty("mean_queue_wait_seconds", e.MeanQueueWaitSeconds)
	w.FloatsOmitEmpty("device_busy", e.DeviceBusy)
	w.IntOmitEmpty("retries", int64(e.Retries))
	w.IntOmitEmpty("faults", int64(e.Faults))
	w.FloatOmitEmpty("slow_factor", e.SlowFactor)
	w.StringOmitEmpty("err", e.Err)
	if len(e.Front) > 0 {
		w.ArrayField("front")
		for _, p := range e.Front {
			w.Object()
			w.String("id", p.ID)
			w.Float("acc", p.Accuracy)
			w.Float("mflops", p.MFLOPs)
			w.EndObject()
		}
		w.EndArray()
	}
	if e.Record != nil {
		e.Record.WriteJSON(&w, "record")
	}
	w.StringOmitEmpty("alert", e.AlertID)
	w.StringOmitEmpty("monitor", e.Monitor)
	w.StringOmitEmpty("severity", e.Severity)
	w.StringOmitEmpty("msg", e.Msg)
	w.IntOmitEmpty("count", int64(e.Count))
	w.StringOmitEmpty("reason", e.Reason)
	w.StringOmitEmpty("path", e.Path)
	w.IntOmitEmpty("goroutines", int64(e.Goroutines))
	w.UintOmitEmpty("heap_bytes", e.HeapBytes)
	w.FloatOmitEmpty("gc_pause_s", e.GCPauseSec)
	w.UintOmitEmpty("rss_bytes", e.RSSBytes)
	w.IntOmitEmpty("fds", int64(e.FDs))
	w.EndObject()
	if w.Err != nil {
		return dst, w.Err
	}
	return w.B, nil
}

// DefaultJournalCapacity bounds the in-memory replay ring. At the
// paper's scale (100 networks × ≤25 epochs × ~20 generations) a full
// run emits a few tens of thousands of events; the ring holds the
// recent window for Last-Event-ID replay and live subscribers, the
// JSONL file holds everything. The ring grows in blocks as events
// arrive, so a short run holds only what it emitted.
const DefaultJournalCapacity = 8192

// Journal is the run's event sink: every Emit assigns the next
// sequence number, appends one JSON line to the events file when one
// is open (crash-safe: append-only, one line per event, so a crash
// tears at most the final line, which readers skip), keeps the event
// in a bounded in-memory ring (for replay), and wakes the live
// subscribers, which read the ring by cursor. A nil Journal ignores
// all calls, so instrumented code pays one branch when events are off.
type Journal struct {
	mu   sync.Mutex
	ring ring[Event]
	next uint64 // next sequence number to assign (starts at 1)
	file *durable.Log
	path string        // the file's path; "" while none is open
	buf  []byte        // line scratch, reused under mu
	subs []*Subscriber // live readers of the ring

	// rec is the attached flight recorder; one atomic load per Emit
	// when none is attached (the disabled-recorder cost the bench gate
	// holds at 0 allocs/op).
	rec atomic.Pointer[Recorder]

	emitted  *Counter // nil-safe accounting hooks
	fileErrs *Counter
	dropped  *Counter
	evicted  *Counter
}

// NewJournal returns a journal whose replay ring holds up to capacity
// events (DefaultJournalCapacity when capacity <= 0). No file is
// attached until OpenFile.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{ring: newRing[Event](capacity), next: 1}
}

// bindMetrics points the journal's accounting at registry counters so
// drops and evictions show up on /metrics.
func (j *Journal) bindMetrics(reg *Registry) {
	if j == nil || reg == nil {
		return
	}
	j.emitted = reg.Counter("a4nn_events_emitted_total")
	j.fileErrs = reg.Counter("a4nn_events_file_errors_total")
	j.dropped = reg.Counter("a4nn_events_dropped_total")
	j.evicted = reg.Counter("a4nn_events_subscribers_evicted_total")
}

// OpenFile attaches an append-only events file at path. Safe to call
// once before the run starts; events emitted earlier live only in the
// ring. Appending to an existing journal (a resumed run) continues its
// sequence numbering, so seq stays strictly increasing across the whole
// file no matter how many times the process was killed and relaunched.
func (j *Journal) OpenFile(path string) error {
	if j == nil {
		return fmt.Errorf("obs: OpenFile on nil journal")
	}
	last := lastSeq(path)
	// A torn final line of a crashed run is newline-terminated, so the
	// next append starts on its own line instead of gluing onto garbage.
	f, err := durable.OpenLog(path, durable.TerminateLine)
	if err != nil {
		return fmt.Errorf("obs: open events file: %w", err)
	}
	j.mu.Lock()
	old := j.file
	j.file, j.path = f, path
	if last >= j.next {
		j.next = last + 1
	}
	j.mu.Unlock()
	old.Close()
	return nil
}

// Path returns the path of the events file the journal appends to, ""
// while none is open. Nil-safe.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.path
}

// lastSeq returns the sequence number of the last line of an events
// file that decodes with one (0 when the file is missing, empty, or has
// none in its final window). The journal numbers its lines in rising
// order, so that is the highest; only lines from the end back to it are
// decoded, so opening a long-lived journal stays O(1).
func lastSeq(path string) uint64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return 0
	}
	const window = 256 * 1024
	off := st.Size() - window
	if off < 0 {
		off = 0
	}
	buf := make([]byte, st.Size()-off)
	if _, err := f.ReadAt(buf, off); err != nil {
		return 0
	}
	if off > 0 {
		// The first line of a mid-file window may be partial.
		_, buf, _ = bytes.Cut(buf, []byte{'\n'})
	}
	for buf = bytes.TrimRight(buf, "\n"); len(buf) > 0; {
		line := buf[bytes.LastIndexByte(buf, '\n')+1:]
		buf = buf[:max(0, len(buf)-len(line)-1)]
		var e struct{ Seq uint64 }
		if json.Unmarshal(line, &e) == nil && e.Seq > 0 {
			return e.Seq
		}
	}
	return 0
}

// Sync forces the attached events file to stable storage (no-op when
// no file is open or on a nil journal).
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	f := j.file
	j.mu.Unlock()
	return f.Sync()
}

// Close syncs and detaches the events file and closes every subscriber,
// so blocked readers (SSE handlers, the health pump) read what was
// published before the call and return. The ring stays readable and new
// subscriptions still work: a run's teardown, not a terminal shutdown.
// Nil-safe; returns the first error from sync/close.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	f := j.file
	j.file, j.path = nil, ""
	for len(j.subs) > 0 {
		j.detach(0, j.ring.end)
	}
	j.mu.Unlock()
	return f.Close()
}

// Emit assigns the next sequence number and timestamp to e, appends it
// to the events file, keeps it in the ring, and wakes live
// subscribers. Subscribers read in sequence order. Never blocks on
// slow subscribers. An event whose append fails is counted, returned
// as the error and goes nowhere else: its sequence number goes to the
// next event, and the ring never holds what the file lacks. No-op on a
// nil journal.
func (j *Journal) Emit(e Event) error {
	if j == nil {
		return nil
	}
	e.Time = time.Now().UnixNano()
	j.mu.Lock()
	e.Seq = j.next
	if j.file != nil {
		err := chaos.Point(chaos.PointJournalAppend)
		if err == nil {
			var line []byte
			if line, err = e.AppendJSON(j.buf[:0]); err == nil {
				j.buf = append(line, '\n')
				err = j.file.Append(j.buf)
			}
		}
		if err != nil {
			j.mu.Unlock()
			j.fileErrs.Inc()
			return fmt.Errorf("obs: journal %s event: %w", e.Type, err)
		}
	}
	j.next++
	// The ring and the recorder are fed after the file append so
	// neither runs ahead of the durable journal: an injected crash at
	// the append point leaves ring tail == file tail, which the
	// postmortem e2e asserts.
	j.store(e)
	j.mu.Unlock()
	j.emitted.Inc()
	return nil
}

// AttachRecorder points the journal's flight-recorder hook at r (nil
// detaches). Nil-safe.
func (j *Journal) AttachRecorder(r *Recorder) {
	if j == nil {
		return
	}
	j.rec.Store(r)
}

// Ingest records an externally produced event (e.g. tailed from
// another process's events file) preserving its sequence number, and
// publishes it. Used by follow mode; no file write.
func (j *Journal) Ingest(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if e.Seq >= j.next {
		j.next = e.Seq + 1
	}
	j.store(e)
	j.mu.Unlock()
	j.emitted.Inc()
}

// store keeps e in the ring, hands it to the flight recorder and wakes
// the subscribers. Caller holds j.mu.
func (j *Journal) store(e Event) {
	j.ring.push(e)
	j.rec.Load().Record(e)
	j.publish()
}

// Since returns a copy of the ring's events with Seq > seq, oldest
// first, as a subscriber replaying them reads them. Pass 0 for
// everything still in the ring. Nil-safe.
func (j *Journal) Since(seq uint64) (out []Event) {
	s := j.SubscribeSince(seq)
	s.Close()
	for batch, open := s.Read(nil); open; batch, open = s.Read(batch) {
		out = append(out, batch...)
	}
	return out
}

// ReadEvents loads an events JSONL file, skipping blank lines and a
// torn final line (the crash case for an append-only sink).
func ReadEvents(path string) ([]Event, error) {
	return durable.ReadJSONL[Event](path)
}
