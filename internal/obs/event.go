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
	// file, a lost record); Reason carries the typed corruption reason.
	EventRecovery = "recovery"
	// EventRuntimeSample carries process runtime metrics (goroutines,
	// heap, GC pause) so a follower in another process can health-check
	// the producer.
	EventRuntimeSample = "runtime_sample"
	// EventAlertCmd logs one -alert-cmd execution and its exit code.
	EventAlertCmd = "alert_cmd"
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

	ValAcc      float64 `json:"val_acc,omitempty"`
	Loss        float64 `json:"loss,omitempty"`
	Fitness     float64 `json:"fitness,omitempty"`
	Predicted   float64 `json:"predicted,omitempty"`
	Actual      float64 `json:"actual,omitempty"`
	MFLOPs      float64 `json:"mflops,omitempty"`
	Epochs      int     `json:"epochs,omitempty"`
	SavedEpochs int     `json:"saved_epochs,omitempty"`
	Terminated  bool    `json:"terminated,omitempty"`

	SimSeconds  float64   `json:"sim_seconds,omitempty"`
	WallSeconds float64   `json:"wall_seconds,omitempty"`
	IdleSeconds float64   `json:"idle_seconds,omitempty"`
	LostSeconds float64   `json:"lost_seconds,omitempty"`
	DeviceBusy  []float64 `json:"device_busy,omitempty"`
	Retries     int       `json:"retries,omitempty"`
	Faults      int       `json:"faults,omitempty"`
	SlowFactor  float64   `json:"slow_factor,omitempty"`
	Err         string    `json:"err,omitempty"`

	Front []ParetoPoint `json:"front,omitempty"`

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

// DefaultJournalCapacity bounds the in-memory replay ring. At the
// paper's scale (100 networks × ≤25 epochs × ~20 generations) a full
// run emits a few tens of thousands of events; the ring holds the
// recent window for Last-Event-ID replay, the JSONL file holds
// everything.
const DefaultJournalCapacity = 8192

// Journal is the run's event sink: every Emit assigns the next
// sequence number, stores the event in a bounded in-memory ring (for
// replay), appends one JSON line to the events file when one is open
// (crash-safe: append-only, one line per event, so a crash tears at
// most the final line, which readers skip), and fans the event out
// through the broker to live subscribers. A nil Journal ignores all
// calls, so instrumented code pays one branch when events are off.
type Journal struct {
	mu     sync.Mutex
	ring   []Event // circular, fixed capacity
	head   int     // index of the oldest stored event
	n      int     // number of stored events
	next   uint64  // next sequence number to assign (starts at 1)
	file   *durable.Log
	broker *Broker
	buf    []byte // marshal scratch, reused under mu

	// rec is the attached flight recorder; one atomic load per Emit
	// when none is attached (the disabled-recorder cost the bench gate
	// holds at 0 allocs/op).
	rec atomic.Pointer[Recorder]

	emitted  *Counter // nil-safe accounting hooks
	fileErrs *Counter
}

// NewJournal returns a journal with a replay ring of the given
// capacity (DefaultJournalCapacity when capacity <= 0) and a fresh
// broker. No file is attached until OpenFile.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{
		ring:   make([]Event, capacity),
		next:   1,
		broker: NewBroker(),
	}
}

// bindMetrics points the journal's (and its broker's) accounting at
// registry counters so drops and evictions show up on /metrics.
func (j *Journal) bindMetrics(reg *Registry) {
	if j == nil || reg == nil {
		return
	}
	j.emitted = reg.Counter("a4nn_events_emitted_total")
	j.fileErrs = reg.Counter("a4nn_events_file_errors_total")
	j.broker.dropped = reg.Counter("a4nn_events_dropped_total")
	j.broker.evicted = reg.Counter("a4nn_events_subscribers_evicted_total")
}

// Broker returns the journal's fanout broker (nil on a nil journal).
func (j *Journal) Broker() *Broker {
	if j == nil {
		return nil
	}
	return j.broker
}

// Subscribe attaches a live subscriber with the given channel buffer
// (DefaultSubscriberBuffer when buf <= 0). Nil-safe: returns nil on a
// nil journal, and a nil Subscriber's methods are inert.
func (j *Journal) Subscribe(buf int) *Subscriber {
	if j == nil {
		return nil
	}
	return j.broker.Subscribe(buf)
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
	j.file = f
	if last >= j.next {
		j.next = last + 1
	}
	j.mu.Unlock()
	old.Close()
	return nil
}

// lastSeq returns the highest valid sequence number in the final window
// of an events file (0 when the file is missing, empty, or unreadable).
// Only the tail is scanned, so opening a long-lived journal stays O(1).
func lastSeq(path string) (last uint64) {
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
	for _, e := range durable.DecodeJSONL[Event](buf) {
		if e.Seq > last {
			last = e.Seq
		}
	}
	return last
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

// Close syncs and detaches the events file (keeping the ring and the
// broker usable). Nil-safe; returns the first error from sync/close.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	f := j.file
	j.file = nil
	j.mu.Unlock()
	return f.Close()
}

// Emit assigns the next sequence number and timestamp to e, records it
// in the ring, appends it to the events file, and publishes it to live
// subscribers. Publication order matches sequence order. Never blocks
// on slow subscribers. No-op on a nil journal.
func (j *Journal) Emit(e Event) {
	if j == nil {
		return
	}
	e.Time = time.Now().UnixNano()
	j.mu.Lock()
	e.Seq = j.next
	j.next++
	j.store(e)
	if j.file != nil {
		err := chaos.Point(chaos.PointJournalAppend)
		if err == nil {
			var line []byte
			if line, err = json.Marshal(e); err == nil {
				j.buf = append(append(j.buf[:0], line...), '\n')
				err = j.file.Append(j.buf)
			}
		}
		if err != nil {
			j.fileErrs.Inc()
		}
	}
	// The recorder hook sits after the file append so the black-box
	// ring never runs ahead of the durable journal: an injected crash
	// at the append point leaves ring tail == file tail, which the
	// postmortem e2e asserts.
	j.rec.Load().Record(e)
	// Publishing under mu keeps broker delivery in sequence order for
	// concurrent emitters; Publish never blocks, so this is cheap.
	j.broker.Publish(e)
	j.mu.Unlock()
	j.emitted.Inc()
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
	j.rec.Load().Record(e)
	j.broker.Publish(e)
	j.mu.Unlock()
	j.emitted.Inc()
}

// store appends e to the circular ring. Caller holds j.mu.
func (j *Journal) store(e Event) {
	if j.n < len(j.ring) {
		j.ring[(j.head+j.n)%len(j.ring)] = e
		j.n++
		return
	}
	j.ring[j.head] = e
	j.head = (j.head + 1) % len(j.ring)
}

// Since returns a copy of the ring's events with Seq > seq, oldest
// first. Pass 0 for everything still in the ring. Nil-safe.
func (j *Journal) Since(seq uint64) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for i := 0; i < j.n; i++ {
		e := j.ring[(j.head+i)%len(j.ring)]
		if e.Seq > seq {
			out = append(out, e)
		}
	}
	return out
}

// LastSeq returns the highest sequence number assigned so far (0 when
// nothing has been emitted). Nil-safe.
func (j *Journal) LastSeq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next - 1
}

// Emitted returns the number of events emitted or ingested (0 without
// bound metrics). Nil-safe.
func (j *Journal) Emitted() uint64 {
	if j == nil {
		return 0
	}
	return j.emitted.Value()
}

// ReadEvents loads an events JSONL file, skipping blank lines and a
// torn final line (the crash case for an append-only sink).
func ReadEvents(path string) ([]Event, error) {
	return durable.ReadJSONL[Event](path)
}
