// Package jobs promotes a4nn-serve from a results viewer into a
// long-running search service: a job manager that accepts search
// submissions, queues and runs many concurrent searches over one shared
// device fleet (sched.Fleet, the paper's Ray-style FIFO pool
// generalised to weighted fair-share scheduling with per-job priorities
// and preemption at generation boundaries), and gives every job an
// isolated commons directory — its own record trails, event journal,
// alerts log, and checkpoints — so crash-resume, corruption recovery,
// and the in-situ health engine all operate per job.
//
// A job's search runs through exactly the same core workflow as a
// single `a4nn` invocation with the same seed and shape; the fleet gate
// only decides *when* each generation runs, never *how*, so a job's
// Pareto front is byte-identical to the same-seed single-job run.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"a4nn/internal/commons"
	"a4nn/internal/core"
	"a4nn/internal/health"
	"a4nn/internal/obs"
	"a4nn/internal/predict"
	"a4nn/internal/runenv"
	"a4nn/internal/sched"
	"a4nn/internal/simtrain"
	"a4nn/internal/xfel"
)

// State is one job's position in its lifecycle:
//
//	queued → running ⇄ paused → completed | failed | canceled
//
// A killed service leaves non-terminal states behind in job.json;
// Recover resubmits those with crash-resume, so queued/running/paused
// also mean "interrupted, will continue on restart".
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StatePaused    State = "paused"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

// Config is the JSON body of POST /api/jobs: one search submission.
// Zero fields take the defaults in parentheses.
type Config struct {
	// ID names the job and its commons directory; generated when empty.
	ID string `json:"id,omitempty"`
	// Beam is the XFEL beam intensity: low, medium, or high (medium).
	Beam string `json:"beam,omitempty"`
	// Devices is how many device slots each generation needs (1). The
	// job's results are those of a -devices N single run.
	Devices int `json:"devices,omitempty"`
	// Population / Offspring / Generations / Epochs shape the search
	// (10 / 10 / 10 / 25, the paper's Table 2).
	Population  int `json:"population,omitempty"`
	Offspring   int `json:"offspring,omitempty"`
	Generations int `json:"generations,omitempty"`
	Epochs      int `json:"epochs,omitempty"`
	// Seed is the search seed (1).
	Seed int64 `json:"seed,omitempty"`
	// Standalone disables the prediction engine (the NSGA-Net baseline).
	Standalone bool `json:"standalone,omitempty"`
	// Priority is the fair-share weight, 1 (lowest) to 99 (10). A job
	// with twice the priority wins generation slots twice as often under
	// contention; preemption is at generation boundaries.
	Priority int `json:"priority,omitempty"`
}

var jobIDPattern = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// Normalize fills defaults in place.
func (c *Config) Normalize() {
	if c.Beam == "" {
		c.Beam = "medium"
	}
	if c.Devices == 0 {
		c.Devices = 1
	}
	if c.Population == 0 {
		c.Population = 10
	}
	if c.Offspring == 0 {
		c.Offspring = 10
	}
	if c.Generations == 0 {
		c.Generations = 10
	}
	if c.Epochs == 0 {
		c.Epochs = 25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Priority == 0 {
		c.Priority = 10
	}
}

// Validate reports the first problem with a normalized config, or nil.
func (c Config) Validate() error {
	if c.ID != "" && !jobIDPattern.MatchString(c.ID) {
		return fmt.Errorf("jobs: id %q must match %s", c.ID, jobIDPattern)
	}
	if _, err := xfel.ParseBeam(c.Beam); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if c.Priority < 1 || c.Priority > 99 {
		return fmt.Errorf("jobs: priority %d outside [1,99]", c.Priority)
	}
	if c.Devices < 1 {
		return fmt.Errorf("jobs: devices %d < 1", c.Devices)
	}
	return nil
}

// BuildSearchConfig assembles the core workflow configuration a job
// runs. `cmd/a4nn` builds its search with the same call from its flags,
// which is what makes job results comparable (byte-identical, single
// device) to single-job CLI runs. Store, Obs, Gate, Resume, and
// Checkpoints are the caller's to set.
func BuildSearchConfig(jc Config) (core.Config, error) {
	beam, err := xfel.ParseBeam(jc.Beam)
	if err != nil {
		return core.Config{}, err
	}
	trainer, err := simtrain.ForBeam(beam)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig(trainer)
	cfg.NAS.PopulationSize = jc.Population
	cfg.NAS.Offspring = jc.Offspring
	cfg.NAS.Generations = jc.Generations
	cfg.NAS.Seed = jc.Seed
	cfg.MaxEpochs = jc.Epochs
	cfg.Devices = jc.Devices
	cfg.Beam = beam.String()
	if jc.Standalone {
		cfg.Engine = nil
	} else if jc.Epochs != 25 {
		engineCfg := predict.DefaultConfig()
		engineCfg.EPred = jc.Epochs
		cfg.Engine = &engineCfg
	}
	return cfg, nil
}

// Progress is a job's live counters, updated as models finish.
type Progress struct {
	// GenerationsDone counts generation barriers reached;
	// GenerationsTotal is the configured generation count.
	GenerationsDone  int `json:"generations_done"`
	GenerationsTotal int `json:"generations_total"`
	// ModelsDone / ModelsTotal count evaluated networks.
	ModelsDone  int `json:"models_done"`
	ModelsTotal int `json:"models_total"`
	// EpochsTrained sums training epochs across finished models.
	EpochsTrained int `json:"epochs_trained"`
	// BestFitness is the best validation accuracy seen so far.
	BestFitness float64 `json:"best_fitness"`
}

// Status is one job's externally visible state (GET /api/jobs/{id}).
type Status struct {
	ID       string    `json:"id"`
	State    State     `json:"state"`
	Error    string    `json:"error,omitempty"`
	Config   Config    `json:"config"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	Progress Progress  `json:"progress"`
	Resumes  int       `json:"resumes,omitempty"` // times crash-recovered
}

// Job is one managed search.
type Job struct {
	mu       sync.Mutex
	id       string
	cfg      Config
	state    State
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	progress Progress
	resumes  int

	dir    string
	cancel context.CancelFunc
	env    *runenv.Stack // per-job run environment; nil until the search starts, readable after Close
	done   chan struct{}
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:       j.id,
		State:    j.state,
		Error:    j.errMsg,
		Config:   j.cfg,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Progress: j.progress,
		Resumes:  j.resumes,
	}
}

// Options configures a Manager.
type Options struct {
	// Root is the directory that holds one commons subdirectory per job.
	Root string
	// FleetSlots is the shared device fleet's capacity (default 4).
	FleetSlots int
	// HealthConfig tunes each job's in-situ health engine; the zero
	// value uses the defaults.
	HealthConfig health.Config
	// SLO, when non-nil, gives every job's health engine the
	// service-level objectives (per-job error budgets and burn-rate
	// alerts).
	SLO *health.SLO
	// Obs is the service-level observer. When set, every job's metrics
	// registry becomes a child scope of its registry, so per-job series
	// roll up into the service /metrics labelled `job="id"`. When nil
	// the manager keeps a private parent registry, and the roll-up is
	// reachable through Manager.Registry.
	Obs *obs.Observer
	// History, when positive, samples every job's metrics scope into a
	// series store (tsdb.SeriesFile) in the job's own directory at this
	// interval, feeding /api/jobs/{id}/query and the job dashboard's
	// chart backfill. The store flushes and closes on terminal states.
	History time.Duration
}

// Manager owns the job table, the shared fleet, and one goroutine per
// running search.
type Manager struct {
	root      string
	fleet     *sched.Fleet
	healthCfg health.Config
	slo       *health.SLO
	history   time.Duration
	reg       *obs.Registry // parent of every job's metrics scope

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for stable listings
	draining bool
	wg       sync.WaitGroup
}

// NewManager creates the job service rooted at opts.Root (created if
// missing).
func NewManager(opts Options) (*Manager, error) {
	if opts.Root == "" {
		return nil, fmt.Errorf("jobs: Options.Root is required")
	}
	if opts.FleetSlots == 0 {
		opts.FleetSlots = 4
	}
	fleet, err := sched.NewFleet(opts.FleetSlots)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Root, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	reg := opts.Obs.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Manager{
		root:      opts.Root,
		fleet:     fleet,
		healthCfg: opts.HealthConfig,
		slo:       opts.SLO,
		history:   opts.History,
		reg:       reg,
		jobs:      make(map[string]*Job),
	}, nil
}

// Registry returns the parent registry job scopes roll up into.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// Fleet exposes the shared device arbiter (for /api/fleet).
func (m *Manager) Fleet() *sched.Fleet { return m.fleet }

// Root returns the jobs root directory.
func (m *Manager) Root() string { return m.root }

// ErrDraining is returned by Submit once the manager is shutting down.
var ErrDraining = fmt.Errorf("jobs: manager is draining, not accepting submissions")

// ErrDuplicateID is returned by Submit when the id is already taken.
var ErrDuplicateID = fmt.Errorf("jobs: job id already exists")

// ErrUnknownJob is returned for operations on ids the manager never saw.
var ErrUnknownJob = fmt.Errorf("jobs: unknown job")

// Submit validates, persists, and starts one job. The search runs in
// its own goroutine, gated on the shared fleet; Submit returns as soon
// as the job is queued.
func (m *Manager) Submit(jc Config) (Status, error) {
	return m.submit(jc, false)
}

func (m *Manager) submit(jc Config, resume bool) (Status, error) {
	jc.Normalize()
	if err := jc.Validate(); err != nil {
		return Status{}, err
	}
	if jc.Devices > m.fleet.Capacity() {
		return Status{}, fmt.Errorf("jobs: job needs %d devices, fleet has %d", jc.Devices, m.fleet.Capacity())
	}
	if !resume {
		// Refuse now what the search would refuse at start, before the job
		// has a directory, a manifest or a place in the fleet. A recovered
		// manifest was accepted once and runs to its own verdict.
		cfg, err := BuildSearchConfig(jc)
		if err != nil {
			return Status{}, err
		}
		if err := cfg.Validate(); err != nil {
			return Status{}, fmt.Errorf("jobs: %w", err)
		}
	}
	if jc.ID == "" {
		jc.ID = newJobID()
	}

	job := &Job{
		id:      jc.ID,
		cfg:     jc,
		state:   StateQueued,
		created: time.Now().UTC(),
		dir:     filepath.Join(m.root, jc.ID),
		done:    make(chan struct{}),
	}
	job.progress.GenerationsTotal = jc.Generations
	job.progress.ModelsTotal = jc.Population + jc.Offspring*(jc.Generations-1)

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return Status{}, ErrDraining
	}
	if _, ok := m.jobs[jc.ID]; ok {
		m.mu.Unlock()
		return Status{}, fmt.Errorf("%w: %s", ErrDuplicateID, jc.ID)
	}
	m.jobs[jc.ID] = job
	m.order = append(m.order, jc.ID)
	m.wg.Add(1)
	m.mu.Unlock()

	if err := m.fleet.Register(jc.ID, float64(jc.Priority)); err != nil {
		m.forget(jc.ID)
		return Status{}, err
	}
	if err := os.MkdirAll(job.dir, 0o755); err != nil {
		m.fleet.Unregister(jc.ID)
		m.forget(jc.ID)
		return Status{}, fmt.Errorf("jobs: %w", err)
	}
	if err := writeManifest(job.dir, manifestOf(job.Status())); err != nil {
		m.fleet.Unregister(jc.ID)
		m.forget(jc.ID)
		return Status{}, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	job.cancel = cancel
	go m.run(ctx, job, resume)
	return job.Status(), nil
}

// forget removes a job that failed to launch. m.wg was Added for it.
func (m *Manager) forget(id string) {
	m.mu.Lock()
	delete(m.jobs, id)
	for i, o := range m.order {
		if o == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	m.wg.Done()
}

// Recover scans the root for job directories whose manifest is not
// terminal — searches a killed service left behind — and resubmits
// them with crash-resume, so restarting `a4nn-serve -jobs -resume`
// continues every interrupted search from its last durable state.
// Returns the recovered job IDs.
func (m *Manager) Recover() ([]string, error) {
	manifests, err := ReadManifests(m.root)
	if err != nil {
		return nil, err
	}
	var recovered []string
	for _, man := range manifests {
		if man.State.Terminal() {
			continue
		}
		st, err := m.submit(man.Config, true)
		if err != nil {
			return recovered, fmt.Errorf("jobs: recover %s: %w", man.Config.ID, err)
		}
		m.mu.Lock()
		if j := m.jobs[st.ID]; j != nil {
			j.mu.Lock()
			j.resumes = man.Resumes + 1
			j.mu.Unlock()
		}
		m.mu.Unlock()
		if man.State == StatePaused {
			m.Pause(st.ID) // a paused job stays paused across restarts
		}
		recovered = append(recovered, st.ID)
	}
	return recovered, nil
}

// run executes one job's search to a terminal state.
func (m *Manager) run(ctx context.Context, job *Job, resume bool) {
	defer m.wg.Done()
	defer close(job.done)
	defer m.fleet.Unregister(job.id)

	err := m.runSearch(ctx, job, resume)

	job.mu.Lock()
	job.finished = time.Now().UTC()
	switch {
	case err == nil:
		job.state = StateCompleted
		job.errMsg = ""
	case ctx.Err() != nil && m.isDraining():
		// Service shutdown, not a user action: leave the persisted state
		// non-terminal so Recover resumes the search on restart.
		job.mu.Unlock()
		return
	case ctx.Err() != nil:
		job.state = StateCanceled
		job.errMsg = context.Cause(ctx).Error()
	default:
		job.state = StateFailed
		job.errMsg = err.Error()
	}
	job.mu.Unlock()
	writeManifest(job.dir, manifestOf(job.Status()))
}

// runSearch opens the per-job commons and run environment, then runs
// the gated search.
func (m *Manager) runSearch(ctx context.Context, job *Job, resume bool) (err error) {
	cfg, err := BuildSearchConfig(job.cfg)
	if err != nil {
		return err
	}
	store, err := commons.Open(job.dir)
	if err != nil {
		return err
	}

	// Per-job observability: the journal, metrics, alerts, history
	// and postmortem bundles all live inside the job's own directory, so
	// the SSE stream, dashboard, and health endpoints are namespaced by
	// construction. The metrics registry is a child scope of the service
	// registry: the job's series roll up into the shared /metrics as
	// `...{job="id"}` while the job is live and are retired when it is
	// not, so service cardinality is bounded by concurrent jobs.
	healthCfg := m.healthCfg
	if m.slo != nil && healthCfg.SLO == nil {
		healthCfg.SLO = m.slo
	}
	env, err := runenv.Open(job.dir, runenv.Options{
		Parent:       m.reg,
		ScopeLabel:   "job",
		ScopeValue:   job.id,
		History:      m.history,
		Health:       &healthCfg,
		ManifestPath: filepath.Join(job.dir, ManifestFile),
	})
	if err != nil {
		return err
	}
	job.mu.Lock()
	job.env = env
	job.mu.Unlock()
	// Teardown in runenv's order (DESIGN §7); the closed environment
	// stays the job's, so its routes serve the final state.
	defer func() {
		if cerr := env.Close(); err == nil {
			err = cerr
		}
	}()

	cfg.Store = store
	cfg.Checkpoints = true
	cfg.Resume = resume
	cfg.Obs = env.Observer()
	cfg.Gate = func(gctx context.Context, gen, tasks int) (func(), error) {
		release, err := m.fleet.Acquire(gctx, job.id, job.cfg.Devices)
		if err != nil {
			return nil, err
		}
		job.mu.Lock()
		if job.state == StateQueued {
			job.state = StateRunning
			job.started = time.Now().UTC()
		}
		job.mu.Unlock()
		return func() {
			release()
			job.mu.Lock()
			if gen+1 > job.progress.GenerationsDone {
				job.progress.GenerationsDone = gen + 1
			}
			job.mu.Unlock()
		}, nil
	}
	cfg.OnModel = func(mr *core.ModelResult) {
		job.mu.Lock()
		job.progress.ModelsDone++
		job.progress.EpochsTrained += mr.Record.EpochsTrained()
		if mr.Fitness > job.progress.BestFitness {
			job.progress.BestFitness = mr.Fitness
		}
		job.mu.Unlock()
	}

	res, err := core.RunCtx(ctx, cfg)
	if err != nil {
		// A genuine failure (not a cancel/drain) is a fatal path for this
		// job: leave a black-box bundle next to the records it died on.
		if ctx.Err() == nil {
			if _, derr := env.Recorder().Dump(fmt.Sprintf("job %s failed: %v", job.id, err)); derr != nil {
				fmt.Fprintln(os.Stderr, "jobs: postmortem dump failed:", derr)
			}
		}
		return err
	}
	job.mu.Lock()
	job.progress.ModelsDone = len(res.Models)
	job.progress.GenerationsDone = job.cfg.Generations
	job.mu.Unlock()
	return nil
}

func (m *Manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// get looks a job up.
func (m *Manager) get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// Get returns one job's status.
func (m *Manager) Get(id string) (Status, error) {
	j, err := m.get(id)
	if err != nil {
		return Status{}, err
	}
	return j.Status(), nil
}

// List returns every job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// ErrTerminal is returned for lifecycle operations on finished jobs.
var ErrTerminal = fmt.Errorf("jobs: job already finished")

// Cancel stops a job: its context cancels, in-flight training stops
// between epochs, and the state becomes canceled.
func (m *Manager) Cancel(id string) error {
	j, err := m.get(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.state)
	}
	cancel := j.cancel
	j.mu.Unlock()
	// A paused job blocks inside the fleet gate; resuming lets the
	// cancellation propagate immediately.
	m.fleet.Resume(id)
	cancel()
	return nil
}

// Pause stops granting the job new generations; the one in flight
// finishes first (preemption at generation boundaries).
func (m *Manager) Pause(id string) error {
	j, err := m.get(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.state)
	}
	j.state = StatePaused
	j.mu.Unlock()
	if err := m.fleet.Pause(id); err != nil {
		return err
	}
	writeManifest(j.dir, manifestOf(j.Status()))
	return nil
}

// ResumeJob re-enables a paused job.
func (m *Manager) ResumeJob(id string) error {
	j, err := m.get(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.state)
	}
	if j.state == StatePaused {
		j.state = StateRunning
		if j.started.IsZero() {
			j.state = StateQueued
		}
	}
	j.mu.Unlock()
	if err := m.fleet.Resume(id); err != nil {
		return err
	}
	writeManifest(j.dir, manifestOf(j.Status()))
	return nil
}

// SetPriority changes a job's fair-share weight at its next grant.
func (m *Manager) SetPriority(id string, priority int) error {
	if priority < 1 || priority > 99 {
		return fmt.Errorf("jobs: priority %d outside [1,99]", priority)
	}
	j, err := m.get(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.cfg.Priority = priority
	j.mu.Unlock()
	return m.fleet.SetWeight(id, float64(priority))
}

// Env returns a job's run environment: its observer (journal, metrics
// scope, spans), health engine and history store. It is nil until the
// search has started, and stays readable once the job is terminal and
// the environment closed, so a finished job's final journal, metrics,
// alerts and history remain servable.
func (m *Manager) Env(id string) (*runenv.Stack, error) {
	j, err := m.get(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.env, nil
}

// JobRegistry returns a job's metrics scope (nil until its search has
// started). A terminal job keeps its scope even after the shared
// roll-up retires it, so its final counters stay queryable.
func (m *Manager) JobRegistry(id string) (*obs.Registry, error) {
	env, err := m.Env(id)
	return env.Observer().Registry(), err
}

// Dir returns a job's commons directory.
func (m *Manager) Dir(id string) (string, error) {
	j, err := m.get(id)
	if err != nil {
		return "", err
	}
	return j.dir, nil
}

// Drain stops accepting new submissions. Running jobs continue.
func (m *Manager) Drain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
}

// Draining reports whether Drain (or Close) has been called.
func (m *Manager) Draining() bool { return m.isDraining() }

// Close drains, cancels every non-terminal job, and waits (bounded by
// ctx) for their goroutines to exit. Interrupted jobs keep their
// non-terminal manifests, so a later Recover continues them — the
// draining-restart story.
func (m *Manager) Close(ctx context.Context) error {
	m.Drain()
	m.mu.Lock()
	var cancels []context.CancelFunc
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.state.Terminal() && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	m.fleet.Close()
	for _, c := range cancels {
		c()
	}
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain timed out: %w", ctx.Err())
	}
}

// Wait blocks until the job reaches a terminal state (tests and CLIs).
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	j, err := m.get(id)
	if err != nil {
		return Status{}, err
	}
	select {
	case <-j.done:
		return j.Status(), nil
	case <-ctx.Done():
		return j.Status(), ctx.Err()
	}
}

// newJobID draws a random 8-hex-digit job name.
func newJobID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("job-%d", time.Now().UnixNano())
	}
	return "job-" + hex.EncodeToString(b[:])
}

// SortStatuses orders statuses: active first, then by creation time.
func SortStatuses(sts []Status) {
	sort.SliceStable(sts, func(a, b int) bool {
		at, bt := sts[a].State.Terminal(), sts[b].State.Terminal()
		if at != bt {
			return !at
		}
		return sts[a].Created.Before(sts[b].Created)
	})
}
