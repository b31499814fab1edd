package obs

// The flight recorder is the observability stack's black box: a
// bounded in-memory ring of the most recent journal events, the active
// alerts derived from them, periodic metrics snapshots, and — at dump
// time — a goroutine dump, heap statistics, the span ring, and the
// job manifest, all framed into one versioned, CRC-checked postmortem
// bundle. It exists for the paths where the usual sinks are useless:
// the process is dying *right now* (a fatal error, an unresolved
// critical alert at shutdown, an injected chaos kill) and the question
// "what was this job doing in its last seconds" must be answerable
// from a single self-contained file.
//
// Recording follows the stack's disabled-is-free rule: a journal with
// no recorder attached pays one atomic load per event
// (BenchmarkDisabledRecorder, gated at 0 allocs/op by the bench gate),
// and Record on an armed recorder is a ring store under a mutex with
// no allocation outside the ring's first fill and the rare
// alert-transition events.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"a4nn/internal/chaos"
	"a4nn/internal/durable"
)

// PostmortemDir is the subdirectory bundles are written into, next to
// the run's other sinks (events.jsonl, alerts.jsonl, job.json).
const PostmortemDir = "postmortem"

// BundleVersion is the current postmortem bundle format version.
const BundleVersion = 1

// bundleMagic opens every bundle file, followed by the u32 version.
var bundleMagic = [4]byte{'A', '4', 'P', 'M'}

const bundleHeaderSize = len(bundleMagic) + 4

// Bundle section names. Decoders must tolerate unknown sections (a
// newer writer) and missing ones (a section whose source was empty).
const (
	SectionMeta           = "meta"            // BundleMeta JSON
	SectionGoroutines     = "goroutines"      // full runtime.Stack dump
	SectionHeap           = "heap"            // HeapStats JSON
	SectionEvents         = "events"          // recorder ring, JSONL
	SectionSpans          = "spans"           // span ring, JSONL
	SectionMetrics        = "metrics"         // final registry Snapshot JSON
	SectionMetricsHistory = "metrics_history" // periodic samples, JSONL
	SectionAlerts         = "alerts"          // active alert events, JSONL
	SectionManifest       = "manifest"        // job.json verbatim
)

// BundleMeta is the bundle's header section.
type BundleMeta struct {
	Version      int    `json:"version"`
	Reason       string `json:"reason"`
	TimeUnixNano int64  `json:"t"`
	PID          int    `json:"pid"`
	GoVersion    string `json:"go_version"`
}

// HeapStats is the subset of runtime.MemStats a postmortem cares
// about.
type HeapStats struct {
	HeapAlloc    uint64 `json:"heap_alloc"`
	HeapSys      uint64 `json:"heap_sys"`
	HeapObjects  uint64 `json:"heap_objects"`
	TotalAlloc   uint64 `json:"total_alloc"`
	NumGC        uint32 `json:"num_gc"`
	PauseTotalNs uint64 `json:"pause_total_ns"`
	Goroutines   int    `json:"goroutines"`
}

// MetricsSample is one periodic registry snapshot in the recorder's
// history ring.
type MetricsSample struct {
	TimeUnixNano int64    `json:"t"`
	Snap         Snapshot `json:"snap"`
}

// The recorder's rings: the last recorderEvents journal events and the
// last recorderSnapshots metrics samples.
const (
	recorderEvents    = 512
	recorderSnapshots = 16
)

// RecorderConfig wires one Recorder.
type RecorderConfig struct {
	// Dir is where Dump writes bundles, under Dir/postmortem.
	Dir string
	// Registry and Tracer are snapshotted at dump time (nil: skipped).
	Registry *Registry
	Tracer   *Tracer
	// ManifestPath, when set, is a file (the job manifest) embedded
	// verbatim in the bundle at dump time.
	ManifestPath string
}

// Recorder is one run's black box. Create with NewRecorder, attach to
// the run's journal with Observer.AttachRecorder (or
// Journal.AttachRecorder), optionally Arm it for crash dumps and Start
// its metrics sampler, and Close it when the run reaches a terminal
// state. All methods are nil-safe.
type Recorder struct {
	cfg RecorderConfig

	mu     sync.Mutex
	events ring[Event]
	alerts map[string]Event // active alerts by ID, from alert events
	snaps  ring[MetricsSample]

	stop chan struct{} // sampler lifecycle
	done chan struct{}
}

// NewRecorder builds a recorder. Its rings grow in blocks as they
// fill, so Record allocates only while the event ring is first
// filling, and never once it has wrapped.
func NewRecorder(cfg RecorderConfig) *Recorder {
	return &Recorder{
		cfg:    cfg,
		events: newRing[Event](recorderEvents),
		alerts: make(map[string]Event),
		snaps:  newRing[MetricsSample](recorderSnapshots),
	}
}

// Record stores one event in the ring and tracks alert transitions so
// the bundle's "alerts" section reflects what was active at the crash.
// It deliberately reads nothing outside the recorder (no registry, no
// journal), because it runs inside Journal.Emit under the journal
// lock. Nil-safe.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events.push(e)
	switch e.Type {
	case EventAlert:
		r.alerts[e.AlertID] = e
	case EventAlertResolved:
		delete(r.alerts, e.AlertID)
	}
	r.mu.Unlock()
}

// SampleMetrics appends one registry snapshot to the history ring (a
// no-op without a registry). Called by the Start sampler; exported so
// tests and synchronous callers can force a sample.
func (r *Recorder) SampleMetrics() {
	if r == nil || r.cfg.Registry == nil {
		return
	}
	s := MetricsSample{TimeUnixNano: time.Now().UnixNano(), Snap: r.cfg.Registry.Snapshot()}
	r.mu.Lock()
	r.snaps.push(s)
	r.mu.Unlock()
}

// Start launches the periodic metrics sampler (default interval 5s).
// Calling Start twice, or on a nil recorder, is a no-op.
func (r *Recorder) Start(interval time.Duration) {
	if r == nil {
		return
	}
	if interval <= 0 {
		interval = 5 * time.Second
	}
	r.mu.Lock()
	if r.stop != nil {
		r.mu.Unlock()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	r.stop, r.done = stop, done
	r.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				r.SampleMetrics()
			case <-stop:
				return
			}
		}
	}()
}

// Close stops the sampler and disarms the recorder (removing it from
// the crash-dump set). The rings stay readable; Dump still works.
// Safe to call more than once and on a nil recorder.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.Disarm()
	r.mu.Lock()
	stop, done := r.stop, r.done
	r.stop, r.done = nil, nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// armed is the process-wide set of recorders DumpArmed flushes — the
// crash-dump fan-out an injected chaos kill triggers through the hook
// installed in init below.
var armed struct {
	mu   sync.Mutex
	recs map[*Recorder]struct{}
}

func init() {
	// Any process that links the observability stack dumps its armed
	// black boxes before an injected crash exits. With nothing armed
	// this is a map iteration over an empty set.
	chaos.SetCrashHook(func() { DumpArmed("chaos kill") })
}

// Arm adds the recorder to the crash-dump set. Idempotent; nil-safe.
func (r *Recorder) Arm() {
	if r == nil {
		return
	}
	armed.mu.Lock()
	if armed.recs == nil {
		armed.recs = make(map[*Recorder]struct{})
	}
	armed.recs[r] = struct{}{}
	armed.mu.Unlock()
}

// Disarm removes the recorder from the crash-dump set. Nil-safe.
func (r *Recorder) Disarm() {
	if r == nil {
		return
	}
	armed.mu.Lock()
	delete(armed.recs, r)
	armed.mu.Unlock()
}

// ArmedRecorders returns the crash-dump set's size (leak tests).
func ArmedRecorders() int {
	armed.mu.Lock()
	defer armed.mu.Unlock()
	return len(armed.recs)
}

// DumpArmed dumps every armed recorder with the given reason,
// reporting failures on stderr (the caller is a crash path with no one
// to return an error to).
func DumpArmed(reason string) {
	armed.mu.Lock()
	recs := make([]*Recorder, 0, len(armed.recs))
	for r := range armed.recs {
		recs = append(recs, r)
	}
	armed.mu.Unlock()
	for _, r := range recs {
		if _, err := r.Dump(reason); err != nil {
			fmt.Fprintln(os.Stderr, "obs: postmortem dump failed:", err)
		}
	}
}

// Dump writes one postmortem bundle into cfg.Dir/postmortem and
// returns its path. The file is written once, appended nowhere, and
// synced — no temp-and-rename, because the dump itself runs on crash
// paths; a bundle torn by a harder kill mid-dump fails its CRC frames
// and decodes as an error, never as wrong data. Nil-safe (returns "").
func (r *Recorder) Dump(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	if r.cfg.Dir == "" {
		return "", fmt.Errorf("obs: recorder has no dump directory")
	}
	data := r.encode(reason)
	dir := filepath.Join(r.cfg.Dir, PostmortemDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: postmortem dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("pm-%d.a4pm", time.Now().UnixNano()))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("obs: postmortem create: %w", err)
	}
	_, werr := f.Write(data)
	serr := f.Sync()
	cerr := f.Close()
	for _, e := range []error{werr, serr, cerr} {
		if e != nil {
			return path, fmt.Errorf("obs: postmortem write: %w", e)
		}
	}
	return path, nil
}

// encode frames the recorder's state into bundle bytes.
func (r *Recorder) encode(reason string) []byte {
	buf := binary.LittleEndian.AppendUint32(append([]byte(nil), bundleMagic[:]...), BundleVersion)

	meta, _ := json.Marshal(BundleMeta{
		Version:      BundleVersion,
		Reason:       reason,
		TimeUnixNano: time.Now().UnixNano(),
		PID:          os.Getpid(),
		GoVersion:    runtime.Version(),
	})
	buf = durable.AppendSection(buf, SectionMeta, meta)

	stack := make([]byte, 1<<20)
	stack = stack[:runtime.Stack(stack, true)]
	buf = durable.AppendSection(buf, SectionGoroutines, stack)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap, _ := json.Marshal(HeapStats{
		HeapAlloc:    ms.HeapAlloc,
		HeapSys:      ms.HeapSys,
		HeapObjects:  ms.HeapObjects,
		TotalAlloc:   ms.TotalAlloc,
		NumGC:        ms.NumGC,
		PauseTotalNs: ms.PauseTotalNs,
		Goroutines:   runtime.NumGoroutine(),
	})
	buf = durable.AppendSection(buf, SectionHeap, heap)

	r.mu.Lock()
	events := r.events.appendAll(nil)
	alerts := make([]Event, 0, len(r.alerts))
	for _, id := range sortedKeys(r.alerts) {
		alerts = append(alerts, r.alerts[id])
	}
	samples := r.snaps.appendAll(nil)
	r.mu.Unlock()
	buf = durable.AppendSection(buf, SectionEvents, marshalJSONL(events))
	buf = durable.AppendSection(buf, SectionAlerts, marshalJSONL(alerts))
	buf = durable.AppendSection(buf, SectionMetricsHistory, marshalJSONL(samples))

	if r.cfg.Tracer != nil {
		if spans, err := r.cfg.Tracer.MarshalJSONL(); err == nil {
			buf = durable.AppendSection(buf, SectionSpans, spans)
		}
	}
	if r.cfg.Registry != nil {
		snap, _ := json.Marshal(r.cfg.Registry.Snapshot())
		buf = durable.AppendSection(buf, SectionMetrics, snap)
	}
	if r.cfg.ManifestPath != "" {
		if man, err := os.ReadFile(r.cfg.ManifestPath); err == nil {
			buf = durable.AppendSection(buf, SectionManifest, man)
		}
	}
	return buf
}

// marshalJSONL renders a slice as JSON Lines.
func marshalJSONL[T any](items []T) []byte {
	var buf bytes.Buffer
	for _, it := range items {
		line, err := json.Marshal(it)
		if err != nil {
			continue
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// maxSectionName bounds a decoded section-name length; anything longer
// is garbage, not a bundle.
const maxSectionName = 256

// Postmortem is one decoded bundle.
type Postmortem struct {
	// Path is where the bundle was read from ("" for DecodeBundleBytes).
	Path string
	// Meta is the parsed header section.
	Meta BundleMeta
	// Sections holds every section's payload by name, including ones
	// this version of the decoder has no typed accessor for.
	Sections map[string][]byte
}

// DecodeBundle reads and decodes one bundle file.
func DecodeBundle(path string) (*Postmortem, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read bundle: %w", err)
	}
	pm, err := DecodeBundleBytes(data)
	if err != nil {
		return nil, fmt.Errorf("obs: decode %s: %w", filepath.Base(path), err)
	}
	pm.Path = path
	return pm, nil
}

// DecodeBundleBytes decodes bundle bytes. Torn, truncated, or
// corrupted input returns an error — never a panic and never silently
// wrong data: every length is bounds-checked against the remaining
// input and every payload is CRC-verified. The returned sections alias
// data.
func DecodeBundleBytes(data []byte) (*Postmortem, error) {
	if len(data) < bundleHeaderSize {
		return nil, fmt.Errorf("bundle too short for its %d-byte header", bundleHeaderSize)
	}
	if [4]byte(data[:4]) != bundleMagic {
		return nil, fmt.Errorf("bad magic %q", data[:4])
	}
	version := binary.LittleEndian.Uint32(data[4:bundleHeaderSize])
	if version == 0 || version > BundleVersion {
		return nil, fmt.Errorf("unsupported bundle version %d", version)
	}
	pm := &Postmortem{Sections: make(map[string][]byte)}
	for rest := data[bundleHeaderSize:]; len(rest) > 0; {
		name, payload, n, err := durable.NextSection(rest)
		if err != nil {
			return nil, err
		}
		if len(name) == 0 || len(name) > maxSectionName {
			return nil, fmt.Errorf("section name length %d out of range", len(name))
		}
		pm.Sections[name] = payload
		rest = rest[n:]
	}
	meta, ok := pm.Sections[SectionMeta]
	if !ok {
		return nil, fmt.Errorf("bundle has no meta section")
	}
	if err := json.Unmarshal(meta, &pm.Meta); err != nil {
		return nil, fmt.Errorf("bad meta section: %v", err)
	}
	// A checksummed section of some other JSON under the meta name
	// unmarshals cleanly into an all-zero header.
	if pm.Meta.Version != int(version) {
		return nil, fmt.Errorf("meta section version %d under bundle version %d", pm.Meta.Version, version)
	}
	return pm, nil
}

// Events parses the bundle's event-ring section (nil when absent).
func (p *Postmortem) Events() []Event { return durable.DecodeJSONL[Event](p.Sections[SectionEvents]) }

// Alerts parses the bundle's active-alert section (nil when absent).
func (p *Postmortem) Alerts() []Event { return durable.DecodeJSONL[Event](p.Sections[SectionAlerts]) }

// Spans parses the bundle's span section (nil when absent).
func (p *Postmortem) Spans() []SpanRecord {
	return durable.DecodeJSONL[SpanRecord](p.Sections[SectionSpans])
}

// MetricsHistory parses the periodic snapshot section (nil when
// absent).
func (p *Postmortem) MetricsHistory() []MetricsSample {
	return durable.DecodeJSONL[MetricsSample](p.Sections[SectionMetricsHistory])
}

// Heap parses the heap-stats section (zero value when absent).
func (p *Postmortem) Heap() HeapStats {
	var h HeapStats
	json.Unmarshal(p.Sections[SectionHeap], &h)
	return h
}

// FindBundles returns every postmortem bundle under dir's postmortem
// subdirectory, sorted oldest first (the filename embeds the dump
// time).
func FindBundles(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, PostmortemDir, "pm-*.a4pm"))
	if err != nil {
		return nil, err
	}
	return paths, nil
}
