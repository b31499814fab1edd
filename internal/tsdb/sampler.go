package tsdb

import (
	"sync"
	"time"

	"a4nn/internal/obs"
)

// flushEveryTicks bounds crash loss: every 8th sample the DB seals all
// buffered tails and fsyncs, so a SIGKILL costs at most 8 intervals of
// history per series (plus whatever the interval itself hides).
const flushEveryTicks = 8

// Sampler periodically walks an obs.Registry and appends every series
// to a DB. A nil *Sampler is a valid disabled sampler: SampleNow and
// Close are one-branch no-ops, keeping the -history-off path free.
type Sampler struct {
	db       *DB
	reg      *obs.Registry
	interval time.Duration
	pre      func()
	mu       sync.Mutex
	stop     chan struct{}
	done     chan struct{}
}

// NewSampler binds a registry to a store. interval ≤ 0 selects 5s.
func NewSampler(db *DB, reg *obs.Registry, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	return &Sampler{db: db, reg: reg, interval: interval}
}

// SetPreSample installs a hook that runs before every sample pass.
// a4nn-serve uses it to refresh the fleet gauges so slot history is
// captured even when no job event happens to fire near the tick. Safe
// to call on a started sampler.
func (s *Sampler) SetPreSample(fn func()) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.pre = fn
	s.mu.Unlock()
}

// Start launches the sampling goroutine. Call at most once.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.stop, s.done)
}

func (s *Sampler) loop(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	n := 0
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			s.SampleNow()
			n++
			if n%flushEveryTicks == 0 {
				s.db.Flush()
			}
		}
	}
}

// SampleNow takes one sample pass immediately: every counter and gauge
// by value, every histogram expanded to _count, _sum and _p99 series,
// root and per-job scopes alike. Nil-safe.
func (s *Sampler) SampleNow() {
	if s == nil {
		return
	}
	s.mu.Lock()
	pre := s.pre
	s.mu.Unlock()
	if pre != nil {
		pre()
	}
	t := time.Now().UnixMilli()
	s.reg.VisitSeries(func(name string, v float64) {
		s.db.Append(name, t, v)
	})
}

// Close stops the sampling goroutine (waiting for it to exit), takes a
// final sample so short runs are not invisible, and flushes the store.
// It does not close the DB — the owner does, after any final queries.
func (s *Sampler) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	s.SampleNow()
	s.db.Flush()
}
