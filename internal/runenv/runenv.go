// Package runenv assembles the telemetry a run executes in — observer,
// event journal file, flight recorder, history store and sampler, health
// engine and alerts file — in one place, and takes it down in one order.
// A stack with a directory always journals there: events.jsonl is the
// run's record, the one `a4nn-analyze telemetry` folds.
// cmd/a4nn, every job of jobs.Manager and a4nn-serve's service-level
// observer all get theirs from Open.
package runenv

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"a4nn/internal/health"
	"a4nn/internal/obs"
	"a4nn/internal/tsdb"
)

// Options selects what Open builds beyond the observer.
type Options struct {
	// Parent, when non-nil, makes the stack's metrics registry the child
	// scope ScopeLabel="ScopeValue" of Parent, so its series roll up into
	// the parent's output until Close retires the scope.
	Parent                 *obs.Registry
	ScopeLabel, ScopeValue string
	// History, when positive, samples the registry into tsdb.SeriesFile
	// in the directory at this interval.
	History time.Duration
	// Health, when non-nil, runs a health engine with this configuration
	// over the journal. Its alerts persist to health.AlertsFile and its
	// disk monitor watches the directory; a Regression section queries
	// the history store.
	Health *health.Config
	// ManifestPath is a job manifest for the flight recorder to include
	// in its postmortem bundles.
	ManifestPath string
	// SeriesOnly marks a directory that holds other runs' telemetry (the
	// commons a4nn-serve serves or follows): only the series file is
	// written there — no journal, alerts file, recorder or closing flush.
	SeriesOnly bool
}

// Stack is an open run environment. A nil *Stack is a valid disabled
// one: its accessors return nil (the disabled observer, engine, store…)
// and Close does nothing.
type Stack struct {
	dir      string // "" when nothing is written to disk
	opts     Options
	observer *obs.Observer
	recorder *obs.Recorder
	db       *tsdb.DB
	sampler  *tsdb.Sampler
	health   *health.Engine

	closeOnce sync.Once
	closeErr  error
}

// Open builds the run environment over dir, the directory its files go
// to; dir may be empty when opts asks for no History, and then nothing
// is written to disk.
// When a step fails, everything the earlier steps opened is released
// before the error is returned.
func Open(dir string, opts Options) (*Stack, error) {
	if dir == "" && opts.History > 0 {
		return nil, errors.New("runenv: history needs a directory")
	}
	s := &Stack{opts: opts}
	if !opts.SeriesOnly {
		s.dir = dir
	}
	if err := s.open(dir); err != nil {
		s.teardown(false)
		return nil, err
	}
	return s, nil
}

func (s *Stack) open(dir string) error {
	opts := s.opts
	s.observer = obs.NewObserverWith(opts.Parent.Scope(opts.ScopeLabel, opts.ScopeValue))
	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return fmt.Errorf("runenv: %w", err)
		}
		if err := s.observer.Journal().OpenFile(filepath.Join(s.dir, obs.EventsFile)); err != nil {
			return err
		}
		// The flight recorder is the run's black box: armed until Close,
		// it turns a fatal error, a chaos kill or an unresolved-critical
		// exit into a postmortem bundle under the directory.
		s.recorder = obs.NewRecorder(obs.RecorderConfig{
			Dir:          s.dir,
			Registry:     s.observer.Registry(),
			Tracer:       s.observer.Tracer(),
			ManifestPath: opts.ManifestPath,
		})
		s.observer.AttachRecorder(s.recorder)
		s.recorder.Arm()
		s.recorder.Start(0)
	}
	if opts.History > 0 {
		db, err := tsdb.Open(dir)
		if err != nil {
			return err
		}
		s.db = db
		s.sampler = tsdb.NewSampler(db, s.observer.Registry(), opts.History)
		s.sampler.Start()
	}
	if opts.Health != nil {
		cfg := *opts.Health
		if s.dir != "" {
			cfg.DiskPath = s.dir
		}
		if cfg.Regression != nil && s.db != nil {
			reg := *cfg.Regression
			reg.Query = s.db.Mean
			cfg.Regression = &reg
		}
		eng, err := health.New(cfg, s.observer)
		if err != nil {
			return err
		}
		s.health = eng
		if s.dir != "" {
			if err := eng.OpenAlertsFile(filepath.Join(s.dir, health.AlertsFile)); err != nil {
				return err
			}
		}
		eng.Start()
	}
	return nil
}

// Close takes the environment down, in the one order every caller relies
// on, and reports the first failures of each step joined:
//
//  1. the health engine drains and closes, so its final alert
//     transitions reach the journal and alerts.jsonl while both are open;
//  2. the sampler takes its final sample (after the engine's last
//     regression query), then the history store flushes and closes;
//  3. the flight recorder stops and disarms — it saw everything above;
//  4. metrics.json is flushed and the journal synced;
//  5. the journal's file is released and its subscribers closed;
//  6. the metrics scope is retired from its parent, last, so the roll-up
//     showed the run for as long as any of it was live.
//
// Close is idempotent; later calls return the first call's error.
func (s *Stack) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() { s.closeErr = s.teardown(true) })
	return s.closeErr
}

// teardown is Close's body; a failed Open runs it without the flush.
func (s *Stack) teardown(flush bool) error {
	var errs []error
	errs = append(errs, s.health.Close())
	s.sampler.Close()
	errs = append(errs, s.db.Close())
	s.recorder.Close()
	if flush && s.dir != "" {
		errs = append(errs, s.observer.FlushTo(s.dir))
	}
	errs = append(errs, s.observer.Journal().Close())
	s.opts.Parent.Retire(s.opts.ScopeLabel, s.opts.ScopeValue)
	return errors.Join(errs...)
}

// Observer returns the run's observer.
func (s *Stack) Observer() *obs.Observer {
	if s == nil {
		return nil
	}
	return s.observer
}

// Recorder returns the flight recorder (nil without a directory).
func (s *Stack) Recorder() *obs.Recorder {
	if s == nil {
		return nil
	}
	return s.recorder
}

// History returns the history store (nil unless Options.History).
func (s *Stack) History() *tsdb.DB {
	if s == nil {
		return nil
	}
	return s.db
}

// Sampler returns the history sampler (nil unless Options.History).
func (s *Stack) Sampler() *tsdb.Sampler {
	if s == nil {
		return nil
	}
	return s.sampler
}

// Health returns the health engine (nil unless Options.Health).
func (s *Stack) Health() *health.Engine {
	if s == nil {
		return nil
	}
	return s.health
}
