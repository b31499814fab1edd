package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"a4nn/internal/core"
	"a4nn/internal/genome"
)

// span is one traced interval at a layer boundary. Spans are recorded
// from this package, around calls into the program's public functions;
// the program itself is not edited. Times are nanoseconds since the
// tracer was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the benchmark ends. A nil tracer is
// the untraced run: start returns 0 and end does nothing.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// that interval its direct children cover. Overlapping children (several
// devices, concurrent requests) are merged before subtracting, and a
// child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = (p.End - p.Start) - covered
	}
	return self
}

// spanSeconds returns the durations, in seconds, of every span called name.
func spanSeconds(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// searchTrace hangs one search's spans together: the search span parents
// generation spans (opened and closed by the Config.Gate hook), which
// parent the new_model and train_epoch spans of the wrapped trainer. All
// benchmark searches run on one device, so exactly one generation is open
// at a time and an atomic holds the current parent.
type searchTrace struct {
	tr      *tracer
	search  int
	current atomic.Int64 // span that new_model/train_epoch attach to

	mu          sync.Mutex
	lastRelease time.Time
	gaps        []float64 // seconds between a release and the next admit
	generations int
}

func newSearchTrace(tr *tracer) *searchTrace {
	st := &searchTrace{tr: tr, search: tr.start("search", 0)}
	st.current.Store(int64(st.search))
	return st
}

func (st *searchTrace) end() { st.tr.end(st.search) }

// gate is a core.GenerationGate that admits every generation at once and
// records it. The gap between one generation's release and the next
// admit is the serial section in between: NSGA-II selection and
// variation plus the runner's task set-up.
func (st *searchTrace) gate(_ context.Context, _, _ int) (func(), error) {
	st.mu.Lock()
	if !st.lastRelease.IsZero() {
		st.gaps = append(st.gaps, time.Since(st.lastRelease).Seconds())
	}
	st.generations++
	st.mu.Unlock()
	id := st.tr.start("generation", st.search)
	st.current.Store(int64(id))
	return func() {
		st.tr.end(id)
		st.current.Store(int64(st.search))
		st.mu.Lock()
		st.lastRelease = time.Now()
		st.mu.Unlock()
	}, nil
}

// tracedTrainer wraps a core.Trainer so that every NewModel and
// TrainEpoch call leaves a span. Seeds pass through untouched, so a
// traced search evaluates exactly the models an untraced one does.
type tracedTrainer struct {
	core.Trainer
	st *searchTrace
}

func (t tracedTrainer) NewModel(g *genome.Genome, seed int64) (core.Trainable, error) {
	id := t.st.tr.start("new_model", int(t.st.current.Load()))
	m, err := t.Trainer.NewModel(g, seed)
	t.st.tr.end(id)
	if err != nil {
		return nil, err
	}
	return tracedModel{Trainable: m, st: t.st}, nil
}

type tracedModel struct {
	core.Trainable
	st *searchTrace
}

func (m tracedModel) TrainEpoch() (core.EpochMetrics, error) {
	id := m.st.tr.start("train_epoch", int(m.st.current.Load()))
	em, err := m.Trainable.TrainEpoch()
	m.st.tr.end(id)
	return em, err
}
