package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"a4nn/internal/chaos"
	"a4nn/internal/commons"
	"a4nn/internal/core"
	"a4nn/internal/obs"
	"a4nn/internal/sched"
	"a4nn/internal/tsdb"
)

// smallJob is a fast search: 6+6×2 = 18 models of ≤10 epochs.
func smallJob(id string, seed int64) Config {
	return Config{
		ID:          id,
		Beam:        "medium",
		Devices:     1,
		Population:  6,
		Offspring:   6,
		Generations: 3,
		Epochs:      10,
		Seed:        seed,
	}
}

func newTestManager(t *testing.T, slots int) *Manager {
	t.Helper()
	m, err := NewManager(Options{Root: t.TempDir(), FleetSlots: slots})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

func waitTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v (state %s)", id, err, st.State)
	}
	return st
}

func TestManagerSubmitAndComplete(t *testing.T) {
	m := newTestManager(t, 2)
	st, err := m.Submit(smallJob("alpha", 42))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("state after submit = %s, want queued", st.State)
	}
	if st.Progress.ModelsTotal != 18 || st.Progress.GenerationsTotal != 3 {
		t.Fatalf("totals = %+v", st.Progress)
	}

	st = waitTerminal(t, m, "alpha")
	if st.State != StateCompleted {
		t.Fatalf("state = %s (%s), want completed", st.State, st.Error)
	}
	if st.Progress.ModelsDone != 18 || st.Progress.GenerationsDone != 3 {
		t.Fatalf("progress = %+v", st.Progress)
	}
	if st.Progress.BestFitness <= 0 || st.Progress.EpochsTrained <= 0 {
		t.Fatalf("counters not populated: %+v", st.Progress)
	}

	// The job directory is a full isolated commons: manifest, records,
	// journal, alerts, telemetry.
	dir, err := m.Dir("alpha")
	if err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.State != StateCompleted {
		t.Fatalf("manifest state = %s", man.State)
	}
	store, err := commons.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 18 {
		t.Fatalf("records = %d, want 18", len(ids))
	}
	events, err := obs.ReadEvents(filepath.Join(dir, obs.EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no journal events")
	}
	for _, name := range []string{"alerts.jsonl", "metrics.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
}

// canonicalRecords marshals a store's records with wall-clock fields
// zeroed, for byte-level comparison across runs.
func canonicalRecords(t *testing.T, dir string) map[string]string {
	t.Helper()
	store, err := commons.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := store.All()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(recs))
	for _, r := range recs {
		r.CreatedAt = time.Time{}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[r.ID] = string(data)
	}
	return out
}

// TestManagerConcurrentJobsMatchSoloRuns is the service's core
// contract: two searches sharing one fleet produce records
// byte-identical (modulo timestamps) to the same-seed solo runs.
func TestManagerConcurrentJobsMatchSoloRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := newTestManager(t, 2)
	for _, jc := range []Config{smallJob("a", 42), smallJob("b", 43)} {
		if _, err := m.Submit(jc); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"a", "b"} {
		if st := waitTerminal(t, m, id); st.State != StateCompleted {
			t.Fatalf("%s: state = %s (%s)", id, st.State, st.Error)
		}
	}

	for _, tc := range []struct {
		id   string
		seed int64
	}{{"a", 42}, {"b", 43}} {
		cfg, err := BuildSearchConfig(smallJob("solo", tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		soloDir := t.TempDir()
		store, err := commons.Open(soloDir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
		cfg.Obs = obs.NewObserver()
		if _, err := core.RunCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}

		jobDir, err := m.Dir(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		got, want := canonicalRecords(t, jobDir), canonicalRecords(t, soloDir)
		if len(got) != len(want) {
			t.Fatalf("job %s: %d records, solo run has %d", tc.id, len(got), len(want))
		}
		for id, w := range want {
			if got[id] != w {
				t.Errorf("job %s record %s diverges from solo run:\n got %s\nwant %s", tc.id, id, got[id], w)
			}
		}
	}
}

func TestManagerCancel(t *testing.T) {
	m := newTestManager(t, 1)
	jc := smallJob("doomed", 7)
	jc.Generations = 50
	if _, err := m.Submit(jc); err != nil {
		t.Fatal(err)
	}
	// Once a model has trained, pause the job: it finishes the generation
	// in flight and waits at the next boundary, so the cancel lands
	// mid-search however fast the search runs.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := m.Get("doomed")
		if err != nil {
			t.Fatal(err)
		}
		if st.Progress.ModelsDone > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := m.Pause("doomed"); err != nil {
		t.Fatalf("pause mid-search: %v", err)
	}
	if err := m.Cancel("doomed"); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, "doomed")
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if st.Progress.ModelsDone >= st.Progress.ModelsTotal {
		t.Fatalf("canceled job trained all %d models", st.Progress.ModelsDone)
	}
	dir, _ := m.Dir("doomed")
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.State != StateCanceled {
		t.Fatalf("manifest state = %s, want canceled", man.State)
	}
	if err := m.Cancel("doomed"); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second cancel: %v, want ErrTerminal", err)
	}
}

func TestManagerPauseResume(t *testing.T) {
	m := newTestManager(t, 1)
	// Occupy the whole fleet so the submitted job blocks at its gate.
	if err := m.Fleet().Register("holder", 1); err != nil {
		t.Fatal(err)
	}
	release, err := m.Fleet().Acquire(context.Background(), "holder", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(smallJob("pausey", 5)); err != nil {
		t.Fatal(err)
	}
	if err := m.Pause("pausey"); err != nil {
		t.Fatal(err)
	}
	release()
	m.Fleet().Unregister("holder")

	// Paused at the gate: no progress even with the fleet free.
	time.Sleep(100 * time.Millisecond)
	st, err := m.Get("pausey")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePaused || st.Progress.ModelsDone != 0 {
		t.Fatalf("paused job advanced: %s %+v", st.State, st.Progress)
	}

	if err := m.ResumeJob("pausey"); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, "pausey"); st.State != StateCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
}

func TestManagerSubmitErrors(t *testing.T) {
	m := newTestManager(t, 2)
	if _, err := m.Submit(smallJob("dup", 1)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { waitTerminal(t, m, "dup") })

	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"duplicate id", smallJob("dup", 2), "already exists"},
		{"bad beam", Config{Beam: "blinding"}, "beam"},
		{"bad id", Config{ID: "../escape"}, "must match"},
		{"bad priority", Config{Priority: 100}, "priority"},
		{"too wide", Config{Devices: 3}, "fleet has 2"},
		// What the search itself would refuse is refused at submit.
		{"negative population", Config{ID: "neg-pop", Population: -3, Epochs: -1}, "population"},
		{"negative offspring", Config{ID: "neg-off", Offspring: -1}, "offspring"},
		{"negative generations", Config{ID: "neg-gen", Generations: -2}, "generations"},
		{"negative epochs", Config{ID: "neg-ep", Epochs: -1}, "≥ 1, got -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := m.Submit(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
	// A refused submission leaves nothing behind: no job, no directory.
	if got := len(m.List()); got != 1 {
		t.Errorf("%d jobs listed after refused submissions, want only \"dup\"", got)
	}
	entries, err := os.ReadDir(m.root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "dup" {
			t.Errorf("refused submission left %s in the root", e.Name())
		}
	}

	m.Drain()
	if _, err := m.Submit(smallJob("late", 3)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	if !m.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
}

func TestManagerUnknownJobOps(t *testing.T) {
	m := newTestManager(t, 1)
	for name, op := range map[string]func() error{
		"cancel": func() error { return m.Cancel("ghost") },
		"pause":  func() error { return m.Pause("ghost") },
		"resume": func() error { return m.ResumeJob("ghost") },
		"get":    func() error { _, err := m.Get("ghost"); return err },
	} {
		if err := op(); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("%s ghost: %v, want ErrUnknownJob", name, err)
		}
	}
}

// waitFleetWaiting polls the fleet until job id has an Acquire blocked.
func waitFleetWaiting(t *testing.T, f *sched.Fleet, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		for _, j := range f.Status().Jobs {
			if j.ID == id && j.Waiting {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet job %s never waited for a slot", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestManagerDrainAndRecover is the restart story: Close mid-search
// leaves a non-terminal manifest; a fresh manager's Recover resumes the
// job to completion with the same records a solo run produces.
func TestManagerDrainAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	root := t.TempDir()
	m, err := NewManager(Options{Root: root, FleetSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The test holds the single fleet slot around the job's first
	// generation, so the drain always finds the job with that generation's
	// work landed and waiting at the next one's gate. The holder takes the
	// slot first (its pass becomes 1); the job registers at pass 1 and
	// queues, then the holder queues behind it.
	fleet := m.Fleet()
	if err := fleet.Register("holder", 1); err != nil {
		t.Fatal(err)
	}
	release, err := fleet.Acquire(context.Background(), "holder", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(smallJob("phoenix", 42)); err != nil {
		t.Fatal(err)
	}
	waitFleetWaiting(t, fleet, "phoenix")
	held := make(chan func(), 1)
	go func() {
		release, err := fleet.Acquire(context.Background(), "holder", 1)
		if err != nil {
			t.Error(err)
			release = func() {}
		}
		held <- release
	}()
	waitFleetWaiting(t, fleet, "holder")
	// Equal passes go in arrival order: generation 0 is the job's, and its
	// pass moves past the holder's, so the holder wins generation 1's grant
	// once generation 0 is done.
	release()
	release = <-held
	defer release()
	if st, err := m.Get("phoenix"); err != nil || st.Progress.ModelsDone == 0 {
		t.Fatalf("job held at generation 1 with %+v (%v), want its first generation done", st.Progress, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}

	man, err := ReadManifest(filepath.Join(root, "phoenix"))
	if err != nil {
		t.Fatal(err)
	}
	if man.State.Terminal() {
		t.Fatalf("manifest state after drain = %s, want non-terminal", man.State)
	}

	m2, err := NewManager(Options{Root: root, FleetSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m2.Close(ctx)
	}()
	recovered, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != "phoenix" {
		t.Fatalf("recovered = %v", recovered)
	}
	st := waitTerminal(t, m2, "phoenix")
	if st.State != StateCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if st.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", st.Resumes)
	}

	// Resumed results match a clean solo run.
	cfg, err := BuildSearchConfig(smallJob("solo", 42))
	if err != nil {
		t.Fatal(err)
	}
	soloDir := t.TempDir()
	store, err := commons.Open(soloDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	cfg.Obs = obs.NewObserver()
	if _, err := core.RunCtx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	got, want := canonicalRecords(t, filepath.Join(root, "phoenix")), canonicalRecords(t, soloDir)
	if len(got) != len(want) {
		t.Fatalf("recovered run has %d records, solo %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("record %s diverges after resume", id)
		}
	}
}

func TestManagerListAndSort(t *testing.T) {
	m := newTestManager(t, 2)
	for _, id := range []string{"one", "two"} {
		if _, err := m.Submit(smallJob(id, 11)); err != nil {
			t.Fatal(err)
		}
	}
	sts := m.List()
	if len(sts) != 2 || sts[0].ID != "one" || sts[1].ID != "two" {
		t.Fatalf("list = %+v", sts)
	}
	waitTerminal(t, m, "one")
	waitTerminal(t, m, "two")

	sts = m.List()
	SortStatuses(sts)
	if len(sts) != 2 {
		t.Fatalf("list = %d entries", len(sts))
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "j1")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	in := Manifest{
		Config:  smallJob("j1", 9),
		State:   StateRunning,
		Created: time.Now().UTC().Truncate(time.Second),
		Resumes: 2,
	}
	if err := writeManifest(jobDir, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadManifest(jobDir)
	if err != nil {
		t.Fatal(err)
	}
	if out.State != in.State || out.Resumes != 2 || out.Config.ID != "j1" || !out.Created.Equal(in.Created) {
		t.Fatalf("round trip: %+v", out)
	}

	// A directory without a manifest is skipped, not an error.
	if err := os.MkdirAll(filepath.Join(dir, "partial"), 0o755); err != nil {
		t.Fatal(err)
	}
	all, err := ReadManifests(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].Config.ID != "j1" {
		t.Fatalf("manifests = %+v", all)
	}

	// A missing root reads as empty.
	none, err := ReadManifests(filepath.Join(dir, "nope"))
	if err != nil || none != nil {
		t.Fatalf("missing root: %v %v", none, err)
	}
}

func TestConfigNormalizeValidate(t *testing.T) {
	var c Config
	c.Normalize()
	if c.Beam != "medium" || c.Devices != 1 || c.Population != 10 || c.Offspring != 10 ||
		c.Generations != 10 || c.Epochs != 25 || c.Seed != 1 || c.Priority != 10 {
		t.Fatalf("defaults: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// hasHistory reports whether the job's history store holds a sample.
func hasHistory(m *Manager, id string) bool {
	env, _ := m.Env(id)
	for _, s := range env.History().Series() {
		if s.Samples > 0 {
			return true
		}
	}
	return false
}

// TestManagerObservabilityRelease is the leak test for the per-job
// observability state: submitting and canceling a hundred jobs must
// return the shared registry (scoped series), the crash-dump set
// (recorder rings), the journals (SSE subscribers), the run-history
// store count (open series files and sampler goroutines), and the
// goroutine count to their baselines. This is the cardinality bound
// the shared /metrics endpoint documents: series scale with *live*
// jobs, not with the service's lifetime submission count.
func TestManagerObservabilityRelease(t *testing.T) {
	m, err := NewManager(Options{
		Root:       t.TempDir(),
		FleetSlots: 4,
		// Fast sampling so even canceled jobs persist history blocks.
		History: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	baselineSeries := m.Registry().NumSeries()
	baselineDBs := tsdb.OpenDBs()
	runtime.GC()
	baselineGoroutines := runtime.NumGoroutine()

	// Each job is paused as soon as it is submitted, so it can finish at
	// most the generation it was already granted: every one of them is
	// still live when the sweep below cancels it.
	const n = 100
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		jc := smallJob(fmt.Sprintf("leak-%03d", i), int64(i+1))
		if _, err := m.Submit(jc); err != nil {
			t.Fatal(err)
		}
		if err := m.Pause(jc.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jc.ID)
	}

	// Attach an SSE-style follower to one live journal so the sweep has
	// a subscriber to evict.
	var sub *obs.Subscriber
	deadline := time.Now().Add(30 * time.Second)
	for sub == nil {
		for _, id := range ids {
			if env, _ := m.Env(id); env != nil {
				sub = env.Observer().Journal().Subscribe()
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no job journal ever appeared")
		}
		if sub == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The first job's sampler has stored history before it is canceled.
	for !hasHistory(m, ids[0]) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never sampled any history", ids[0])
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, id := range ids {
		if err := m.Cancel(id); err != nil {
			t.Fatalf("cancel %s: %v", id, err)
		}
	}
	for _, id := range ids {
		if st := waitTerminal(t, m, id); st.State != StateCanceled {
			t.Fatalf("%s ended %s, want canceled", id, st.State)
		}
	}

	// The follower must close — terminal jobs pin no subscriber
	// goroutines.
	closeDeadline := time.After(10 * time.Second)
	var batch []obs.Event
	for open := true; open; {
		if batch, open = sub.Read(batch); open && len(batch) == 0 {
			select {
			case <-sub.Wake():
			case <-closeDeadline:
				t.Fatal("subscriber never closed after job teardown")
			}
		}
	}

	if got := m.Registry().Scopes(); got != 0 {
		t.Errorf("live scopes after teardown = %d, want 0", got)
	}
	if got := m.Registry().NumSeries(); got != baselineSeries {
		t.Errorf("registry series = %d, want baseline %d", got, baselineSeries)
	}
	if got := obs.ArmedRecorders(); got != 0 {
		t.Errorf("armed recorders after teardown = %d, want 0", got)
	}
	// Every per-job history store must be flushed and closed: the open-DB
	// count returns to baseline (no leaked series file handles), and the
	// flushed file stays readable with sampled data in it.
	if got := tsdb.OpenDBs(); got != baselineDBs {
		t.Errorf("open history stores after teardown = %d, want baseline %d", got, baselineDBs)
	}
	// A terminal job's history is its closed store, which answers as a
	// fresh read of the file it flushed.
	env, err := m.Env(ids[0])
	if err != nil || env.History() == nil {
		t.Fatalf("Env(%s) = %v, %v; want the closed environment with its history", ids[0], env, err)
	}
	hist := env.History()
	infos := hist.Series()
	if len(infos) == 0 {
		t.Errorf("terminal job %s has an empty history store", ids[0])
	}
	dir, _ := m.Dir(ids[0])
	file, err := tsdb.OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(infos, file.Series()) {
		t.Errorf("closed store series %+v, file %+v", infos, file.Series())
	}
	for _, info := range infos {
		for _, step := range []int64{0, 1, 1000} {
			got, gerr := hist.Query(info.Name, 0, 0, step)
			want, werr := file.Query(info.Name, 0, 0, step)
			if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s step %d: closed store %+v (%v), file %+v (%v)", info.Name, step, got, gerr, want, werr)
			}
		}
	}
	// Goroutines wind down asynchronously; give them a bounded settle.
	settle := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= baselineGoroutines+3 {
			break
		} else if time.Now().After(settle) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines = %d, baseline %d; stacks:\n%s",
				g, baselineGoroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Per-job metrics stay queryable after the roll-up retired them.
	reg, err := m.JobRegistry(ids[0])
	if err != nil || reg == nil {
		t.Fatalf("JobRegistry(%s) = %v, %v; want live scope", ids[0], reg, err)
	}
}

// TestManifestChaosPoints: an err= plan at either rename point of
// job.json returns the injected error. Before the rename the previous
// manifest stays whole; after it the new one is committed. No temp file
// is left either way.
func TestManifestChaosPoints(t *testing.T) {
	t.Cleanup(func() { chaos.Install(nil) })
	for _, c := range []struct {
		point string
		want  State
	}{
		{chaos.PointManifestPreRename, StateQueued},
		{chaos.PointManifestPostRename, StateRunning},
	} {
		dir := t.TempDir()
		if err := writeManifest(dir, Manifest{Config: smallJob("j1", 9), State: StateQueued}); err != nil {
			t.Fatal(err)
		}
		plan, err := chaos.Parse("err=" + c.point + "@1")
		if err != nil {
			t.Fatal(err)
		}
		chaos.Install(plan)
		err = writeManifest(dir, Manifest{Config: smallJob("j1", 9), State: StateRunning})
		chaos.Install(nil)
		if !chaos.IsInjected(err) {
			t.Fatalf("%s: writeManifest = %v, want the injected error", c.point, err)
		}
		got, err := ReadManifest(dir)
		if err != nil || got.State != c.want {
			t.Fatalf("%s: manifest after the injected error = %+v, %v; want state %s", c.point, got, err, c.want)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("%s: directory holds %d entries, want 1", c.point, len(entries))
		}
	}
}
