package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"a4nn/internal/commons"
	"a4nn/internal/core"
	"a4nn/internal/health"
	"a4nn/internal/obs"
	"a4nn/internal/simtrain"
	"a4nn/internal/tsdb"
	"a4nn/internal/xfel"
)

// historyInterval is the tsdb sampling period of the in-situ and job
// workloads: short enough that the sampler does measurable work inside a
// search that lasts under a second.
const historyInterval = 100 * time.Millisecond

var beams = []xfel.BeamIntensity{xfel.LowBeam, xfel.MediumBeam, xfel.HighBeam}

// plan is the generated input of surrogate search i: NAS seed base+i and
// the beams in rotation. search_bare, search_insitu and serve_jobs share
// it, which is what lets their fingerprints be compared.
type plan struct {
	seed int64
	beam xfel.BeamIntensity
}

func planFor(base int64, i int) plan {
	return plan{seed: base + int64(i), beam: beams[i%len(beams)]}
}

// paperConfig is the paper-scale surrogate search of Tables 1 and 2
// (population 10, offspring 10, 10 generations, 25 epochs: 100 models) on
// one device. The device ID is part of every model's seed, so only
// single-device searches are reproducible.
func paperConfig(base int64, i int) (core.Config, error) {
	p := planFor(base, i)
	trainer, err := simtrain.ForBeam(p.beam)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig(trainer)
	cfg.NAS.Seed = p.seed
	cfg.Beam = p.beam.String()
	return cfg, nil
}

// pinnedHealth is the health configuration of every benchmark search: the
// run's own monitors at their defaults, the ambient ones (disk, RSS, file
// descriptors, goroutines, heap, GC pauses) pushed out of reach, so the
// state of the host cannot change how many alerts a search fires and
// therefore how much work it does.
func pinnedHealth(dir string) health.Config {
	return health.Config{
		DiskPath:         dir,
		DiskWarnFrac:     1e-9,
		DiskCritFrac:     1e-12,
		RSSWarnMB:        -1,
		FDWarn:           -1,
		MaxGoroutines:    -1,
		HeapGrowthFactor: 1e9,
		GCPauseP99:       time.Hour,
	}
}

// insitu is everything a job or an `a4nn -store -events -health -history
// -checkpoints` run wraps around a search: commons store with per-epoch
// checkpoints, journal on disk, armed flight recorder, health engine with
// its alerts file, and the history sampler.
type insitu struct {
	dir      string
	store    *commons.Store
	observer *obs.Observer
	db       *tsdb.DB
	sampler  *tsdb.Sampler
	health   *health.Engine
	recorder *obs.Recorder

	flushSeconds, healthCloseSeconds float64
}

func openInsitu(dir string) (*insitu, error) {
	store, err := commons.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &insitu{dir: dir, store: store, observer: obs.NewObserver()}
	if err := s.observer.Journal().OpenFile(filepath.Join(dir, obs.EventsFile)); err != nil {
		return nil, err
	}
	if s.db, err = tsdb.Open(dir); err != nil {
		return nil, err
	}
	s.sampler = tsdb.NewSampler(s.db, s.observer.Registry(), historyInterval)
	s.sampler.Start()
	if s.health, err = health.New(pinnedHealth(dir), s.observer); err != nil {
		return nil, err
	}
	if err := s.health.OpenAlertsFile(filepath.Join(dir, health.AlertsFile)); err != nil {
		return nil, err
	}
	s.health.Start()
	s.recorder = obs.NewRecorder(obs.RecorderConfig{
		Dir:      dir,
		Registry: s.observer.Registry(),
		Tracer:   s.observer.Tracer(),
	})
	s.observer.AttachRecorder(s.recorder)
	s.recorder.Arm()
	s.recorder.Start(0)
	return s, nil
}

// close tears the stack down in the order cmd/a4nn does: recorder, health
// (so its last transitions reach the journal), sampler, store, telemetry
// flush, journal.
func (s *insitu) close() error {
	s.recorder.Close()
	t0 := time.Now()
	err := s.health.Close()
	s.healthCloseSeconds = time.Since(t0).Seconds()
	s.sampler.Close()
	if cerr := s.db.Close(); err == nil {
		err = cerr
	}
	t0 = time.Now()
	if ferr := s.observer.FlushTo(s.dir); err == nil {
		err = ferr
	}
	s.flushSeconds = time.Since(t0).Seconds()
	if cerr := s.observer.Journal().Close(); err == nil {
		err = cerr
	}
	return err
}

// syncCallsPerStack counts the fsync-ing writes of one teardown: the
// health engine's alerts file, the sampler's final flush, the store's
// close, FlushTo's journal sync and the journal's own close.
const syncCallsPerStack = 5

// searchRun is one finished search and what was measured around it.
type searchRun struct {
	cfg        core.Config
	res        *core.Result
	wall       float64
	allocBytes uint64
	stack      *insitu      // nil for a bare search
	trace      *searchTrace // nil when untraced
}

// runSearch runs one search and times it. With dir set the search gets
// the full in-situ stack in that (fresh) directory, and opening and
// closing the stack is inside the timed interval, as a job pays for it.
// With a tracer the trainer is wrapped and generations are gated so that
// every layer boundary leaves a span.
func runSearch(cfg core.Config, dir string, tr *tracer) (*searchRun, error) {
	run := &searchRun{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	if tr != nil {
		run.trace = newSearchTrace(tr)
		cfg.Trainer = tracedTrainer{Trainer: cfg.Trainer, st: run.trace}
		cfg.Gate = run.trace.gate
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		stack, err := openInsitu(dir)
		if err != nil {
			return nil, fmt.Errorf("in-situ stack: %w", err)
		}
		run.stack = stack
		cfg.Store = stack.store
		cfg.Checkpoints = true
		cfg.Obs = stack.observer
	}
	res, err := core.Run(cfg)
	if run.stack != nil {
		if cerr := run.stack.close(); err == nil && cerr != nil {
			err = fmt.Errorf("in-situ teardown: %w", cerr)
		}
	}
	if run.trace != nil {
		run.trace.end()
	}
	run.wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	run.cfg, run.res, run.allocBytes = cfg, res, after.TotalAlloc-before.TotalAlloc
	return run, nil
}
