package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is the completed, serialisable form of a span — one entry
// of /debug/spans and of a postmortem bundle's spans section.
type SpanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartUnixNano and DurationNanos are real (wall-clock) time; the
	// workflow's simulated-time accounting travels in the event journal.
	StartUnixNano int64             `json:"start_unix_nano"`
	DurationNanos int64             `json:"duration_ns"`
	Attrs         map[string]string `json:"attrs,omitempty"`
}

// Tracer collects completed spans into a bounded in-memory ring; once
// the ring is full the oldest spans are dropped (Snapshot counts them).
// A Tracer is safe for concurrent use.
type Tracer struct {
	nextID atomic.Uint64

	mu   sync.Mutex
	ring ring[SpanRecord]
}

// DefaultSpanCapacity bounds the ring at a size that comfortably holds
// a paper-scale run (100 models × ≤25 epoch spans + scheduler spans).
// The ring grows in blocks up to it.
const DefaultSpanCapacity = 16384

// NewTracer returns a tracer whose ring holds up to capacity completed
// spans (≤ 0 selects DefaultSpanCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Tracer{ring: newRing[SpanRecord](capacity)}
}

// add books a completed span into the ring.
func (t *Tracer) add(rec SpanRecord) {
	t.mu.Lock()
	t.ring.push(rec)
	t.mu.Unlock()
}

// Snapshot returns the completed spans, oldest first, plus the count of
// spans dropped to the ring bound.
func (t *Tracer) Snapshot() (spans []SpanRecord, dropped uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.ring.start()
	return t.ring.appendAll(make([]SpanRecord, 0, t.ring.end-start)), start
}

// MarshalJSONL renders the ring as JSON Lines, one span per line,
// oldest first.
func (t *Tracer) MarshalJSONL() ([]byte, error) {
	spans, _ := t.Snapshot()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// SpansHandler serves the ring as a JSON array (the /debug/spans
// endpoint).
func (t *Tracer) SpansHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		spans, dropped := t.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Dropped uint64       `json:"dropped"`
			Spans   []SpanRecord `json:"spans"`
		}{Dropped: dropped, Spans: spans})
	})
}

// Span is one in-flight operation. It is created by StartSpan, carries
// string attributes, and books itself into its tracer's ring on End.
// All methods are no-ops on a nil receiver, so code instrumented
// against a context without a tracer costs one branch per call.
type Span struct {
	tracer *Tracer
	rec    SpanRecord
	start  time.Time
	ended  bool
}

type tracerKey struct{}
type spanKey struct{}

// WithTracer returns a context carrying the tracer; StartSpan calls on
// the returned context (and its children) record into it. A nil tracer
// returns ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// StartSpan starts a span named name under the context's current span
// (if any) and returns a derived context carrying the new span as
// parent for nested StartSpan calls. When the context carries no tracer
// it returns (ctx, nil) without allocating — instrumentation against a
// disabled tracer is free.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	s := &Span{
		tracer: t,
		start:  time.Now(),
		rec:    SpanRecord{ID: t.nextID.Add(1), Name: name},
	}
	if parent, _ := ctx.Value(spanKey{}).(*Span); parent != nil {
		s.rec.Parent = parent.rec.ID
	}
	s.rec.StartUnixNano = s.start.UnixNano()
	return context.WithValue(ctx, spanKey{}, s), s
}

// SetAttr attaches a string attribute to the span.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]string, 4)
	}
	s.rec.Attrs[key] = val
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.Itoa(v))
}

// End completes the span and books it into the tracer. Ending twice is
// a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.DurationNanos = time.Since(s.start).Nanoseconds()
	s.tracer.add(s.rec)
}
