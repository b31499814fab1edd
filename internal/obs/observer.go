package obs

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"a4nn/internal/durable"
)

// File names of the per-run telemetry sinks, written into the run's
// commons directory alongside the lineage records.
const (
	// SpansFile holds the span ring as JSON Lines.
	SpansFile = "spans.jsonl"
	// MetricsFile holds the final registry snapshot as JSON.
	MetricsFile = "metrics.json"
)

// Observer bundles a metrics registry, a span tracer, and an event
// journal — the handle a run threads through the workflow. A nil
// Observer disables all observability: Registry, Tracer, and Journal
// return nil, whose instrument handles, spans, and Emit calls are
// no-ops.
type Observer struct {
	reg     *Registry
	tracer  *Tracer
	journal *Journal
}

// NewObserver returns an observer with a fresh registry, a tracer of
// DefaultSpanCapacity, and an event journal (ring only — attach a
// file with Journal().OpenFile to persist events).
func NewObserver() *Observer {
	return NewObserverWith(nil)
}

// NewObserverWith builds an observer over a supplied registry — the
// multi-tenant hook: passing a parent registry's Scope gives the run
// its own instrument namespace while its series roll up, labelled,
// into the parent's /metrics. A nil registry gets a fresh one.
func NewObserverWith(reg *Registry) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	o := &Observer{reg: reg, tracer: NewTracer(0), journal: NewJournal(0)}
	o.journal.bindMetrics(o.reg)
	return o
}

// Registry returns the metrics registry (nil on a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the span tracer (nil on a nil observer).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// AttachRecorder points the observer's journal at the flight recorder
// (nil detaches). Nil-safe.
func (o *Observer) AttachRecorder(r *Recorder) {
	if o == nil {
		return
	}
	o.journal.AttachRecorder(r)
}

// Journal returns the event journal (nil on a nil observer).
func (o *Observer) Journal() *Journal {
	if o == nil {
		return nil
	}
	return o.journal
}

// FlushTo atomically writes the spans JSONL and the metrics snapshot
// into dir (creating it if needed). Each file is written via a temp
// file renamed into place, so a crash mid-flush can never leave a torn
// sink next to the lineage records. A nil observer flushes nothing.
func (o *Observer) FlushTo(dir string) error {
	if o == nil {
		return nil
	}
	if dir == "" {
		return fmt.Errorf("obs: empty flush directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("obs: create flush dir: %w", err)
	}
	spans, err := o.tracer.MarshalJSONL()
	if err != nil {
		return fmt.Errorf("obs: marshal spans: %w", err)
	}
	if err := durable.AtomicWrite(filepath.Join(dir, SpansFile), spans, 0o644, false, "", ""); err != nil {
		return fmt.Errorf("obs: write %s: %w", SpansFile, err)
	}
	var buf bytes.Buffer
	if err := o.reg.WriteJSON(&buf); err != nil {
		return fmt.Errorf("obs: marshal metrics: %w", err)
	}
	if err := durable.AtomicWrite(filepath.Join(dir, MetricsFile), buf.Bytes(), 0o644, false, "", ""); err != nil {
		return fmt.Errorf("obs: write %s: %w", MetricsFile, err)
	}
	// The event journal is append-per-event already; just push it to
	// stable storage so a fatal exit right after the flush loses
	// nothing.
	if err := o.journal.Sync(); err != nil {
		return fmt.Errorf("obs: sync %s: %w", EventsFile, err)
	}
	return nil
}

// Handler serves the observer's live endpoints:
//
//	GET /metrics       Prometheus text format
//	GET /metrics.json  expvar-style JSON snapshot
//	GET /debug/spans   span ring as a JSON array
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", o.Registry().MetricsHandler())
	mux.Handle("GET /metrics.json", o.Registry().JSONHandler())
	mux.Handle("GET /debug/spans", o.Tracer().SpansHandler())
	return mux
}
