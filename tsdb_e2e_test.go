package a4nn

// End-to-end tests of the run-history pipeline: a real `a4nn -history`
// process killed mid-run and resumed must yield one continuous,
// gap-annotated series file, and the cross-run regression monitor must
// fire against a degraded baseline while staying silent against the
// run's own.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"a4nn/internal/health"
	"a4nn/internal/runenv"
	"a4nn/internal/tsdb"
)

// TestHistoryKillResumeE2E is the crash-consistency acceptance test:
// run with -history, SIGKILL mid-run (torn tail and all), relaunch with
// -resume, and require a range query over the full window to return a
// single monotone series that continues the same series file — pre-kill
// samples preserved, post-kill samples appended, the outage visible as
// a gap annotation rather than silence or corruption.
func TestHistoryKillResumeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("history e2e in -short mode")
	}
	bins := buildTools(t, "a4nn", "a4nn-analyze")
	store := scratchDir(t, "store")
	seriesPath := filepath.Join(store, tsdb.SeriesFile)
	args := []string{"-beam", "medium", "-population", "10", "-offspring", "10",
		"-generations", "20", "-seed", "11", "-store", store, "-history", "25ms"}

	cmd := exec.Command(bins["a4nn"], args...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the sampler persist a few flushed blocks, then pull the plug
	// with no warning: SIGKILL skips every flush and close path, so the
	// file may well end mid-block.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if fi, err := os.Stat(seriesPath); err == nil && fi.Size() >= 4096 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("%s never grew past 4KiB", seriesPath)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // expected non-zero: the process was SIGKILLed mid-run

	// The torn file must already be readable, and its bounds are the
	// yardstick for the resumed run below.
	pre, err := OpenHistoryRead(store)
	if err != nil {
		t.Fatalf("history unreadable after SIGKILL: %v", err)
	}
	preMin, preMax := pre.Bounds()
	if preMin == 0 || preMax == 0 {
		t.Fatalf("no samples survived the kill (bounds %d..%d)", preMin, preMax)
	}

	// A visible outage: long enough that the raw-query gap heuristic
	// (4× the 25ms sampling median) cannot miss it.
	time.Sleep(1200 * time.Millisecond)
	run(t, bins["a4nn"], append(args, "-resume")...)

	db, err := OpenHistoryRead(store)
	if err != nil {
		t.Fatal(err)
	}
	minT, maxT := db.Bounds()
	if minT != preMin {
		t.Errorf("pre-kill history lost: store minT %d, want %d", minT, preMin)
	}
	if maxT <= preMax {
		t.Errorf("no post-resume samples: maxT %d, pre-kill %d", maxT, preMax)
	}

	const series = "a4nn_train_epochs_total"
	raw, err := db.Query(series, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	gaps := 0
	for i, p := range raw.Points {
		if i > 0 && p.T <= raw.Points[i-1].T {
			t.Fatalf("timestamps not monotone at %d: %d after %d", i, p.T, raw.Points[i-1].T)
		}
		if p.Gap {
			gaps++
		}
	}
	if gaps == 0 {
		t.Errorf("raw query over the kill window has no gap annotation (%d points)", len(raw.Points))
	}
	if first, last := raw.Points[0].T, raw.Points[len(raw.Points)-1].T; first > preMax || last <= preMax {
		t.Errorf("series does not span the kill: %d..%d, kill at %d", first, last, preMax)
	}

	// Step-aligned downsampling over the full window keeps the hole.
	stepped, err := db.Query(series, minT, maxT, 200)
	if err != nil {
		t.Fatal(err)
	}
	gaps = 0
	for _, p := range stepped.Points {
		if p.Gap {
			gaps++
		}
	}
	if gaps == 0 {
		t.Errorf("stepped query elided the outage (%d points)", len(stepped.Points))
	}

	// The analyzer reads the same continuation.
	out := run(t, bins["a4nn-analyze"], "-store", store, "series", series)
	if !strings.Contains(out, "series "+series) || strings.Contains(out, "gaps: 0") {
		t.Fatalf("analyze series output:\n%s", out)
	}
	if m := regexp.MustCompile(`gaps: (\d+)`).FindStringSubmatch(out); m == nil {
		t.Fatalf("analyze series reported no gap count:\n%s", out)
	}
}

// TestRegressionBaselineE2E is the cross-run regression acceptance
// test: a run compared against its own exported baseline ends healthy,
// and the same run compared against a degraded baseline raises a
// sustained regression alert through the ordinary health pipeline.
func TestRegressionBaselineE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("regression e2e in -short mode")
	}
	bins := buildTools(t, "a4nn", "a4nn-analyze")
	work := scratchDir(t, "work")
	basePath := filepath.Join(work, "base.json")
	const key = "a4nn_sched_effective_gflops"
	job := JobConfig{Beam: "medium", Devices: 1, Population: 6, Offspring: 6, Generations: 30, Epochs: 25, Seed: 11}
	// The ambient monitors (disk, RSS, file descriptors) are pushed out of
	// reach so the state of the host cannot decide the status asserted
	// below.
	healthSpec := "sample-ms=50," +
		"disk-warn=1e-9,disk-crit=1e-10,rss-warn-mb=1000000,rss-crit-mb=2000000,fd-warn=1000000,fd-crit=2000000"
	regressed := func(env *runenv.Stack) *health.Alert {
		for _, a := range env.Health().ActiveAlerts() {
			if a.ID == "regression/"+key {
				return &a
			}
		}
		return nil
	}

	// search runs the job in process, recording its history into dir and
	// judging it against base when one is given. A series mean sampled on
	// a clock weighs each generation by how long it ran, so here only the
	// generation gate samples: three times at every generation boundary,
	// and on while hold keeps a generation waiting. Two runs' series then
	// agree however fast either searched.
	search := func(dir string, base *health.Baseline, hold func(env *runenv.Stack, gen int) bool) *runenv.Stack {
		opts := runenv.Options{History: time.Hour} // the sampler's ticker never fires
		if base != nil {
			hc, err := ParseHealthConfig(healthSpec)
			if err != nil {
				t.Fatal(err)
			}
			hc.Regression = &health.RegressionConfig{Baseline: *base, EvalInterval: 5 * time.Millisecond}
			opts.Health = &hc
		}
		env, err := runenv.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		cfg, err := BuildJobSearchConfig(job)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Obs = env.Observer()
		cfg.Gate = func(_ context.Context, gen, _ int) (func(), error) {
			deadline := time.Now().Add(time.Minute)
			for i := 0; i < 3 || hold != nil && hold(env, gen); i++ {
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("generation %d still held after a minute", gen)
				}
				// Samples of a series need distinct millisecond stamps.
				time.Sleep(time.Millisecond)
				env.Sampler().SampleNow()
			}
			return func() {}, nil
		}
		if _, err := RunCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		if err := env.Close(); err != nil {
			t.Fatal(err)
		}
		return env
	}

	// Reference run → committed baseline.
	search(filepath.Join(work, "ref"), nil, nil)
	out := run(t, bins["a4nn-analyze"], "-store", filepath.Join(work, "ref"),
		"-baseline-out", basePath, "series")
	if !strings.Contains(out, "baseline over") {
		t.Fatalf("baseline export output:\n%s", out)
	}
	base, err := health.LoadBaseline(basePath)
	if err != nil {
		t.Fatal(err)
	}

	// An identical run judged against that baseline stays silent: same
	// seed, same shape, no regression to find.
	if active := search(filepath.Join(work, "same"), &base, nil).Health().ActiveAlerts(); len(active) != 0 {
		t.Fatalf("run against own baseline not healthy: %+v", active)
	}

	// Degrade the committed throughput: pretend the baseline run was 10×
	// faster. The live run now reads as a sustained lower-worse
	// regression and must end with the alert active. The monitor needs
	// five samples of a series that starts with the first generation, then
	// three evaluations beyond tolerance; generation 1 waits for them.
	bs, ok := base.Series[key]
	if !ok {
		t.Fatalf("baseline missing %s (series: %v)", key, len(base.Series))
	}
	if bs.Direction != "lower-worse" {
		t.Fatalf("%s direction = %q, want lower-worse", key, bs.Direction)
	}
	bs.Mean *= 10
	base.Series = map[string]health.BaselineSeries{key: bs}
	slow := search(filepath.Join(work, "slow"), &base, func(env *runenv.Stack, gen int) bool {
		return gen == 1 && regressed(env) == nil
	})
	if a := regressed(slow); a == nil || !strings.Contains(a.Message, "below baseline") {
		t.Fatalf("degraded baseline's regression alert not active at the end: %+v", slow.Health().ActiveAlerts())
	}

	// The command loads the degraded baseline and prints the alert. It has
	// no gate: at a 5 ms cadence the monitor needs about 40 ms of a search
	// that lasts several times that.
	degradedPath := filepath.Join(work, "degraded.json")
	if err := base.Save(degradedPath); err != nil {
		t.Fatal(err)
	}
	out = run(t, bins["a4nn"], "-beam", "medium", "-population", "6", "-offspring", "6",
		"-generations", "30", "-seed", "11", "-store", filepath.Join(work, "cli"),
		"-history", "5ms", "-health-config", healthSpec,
		"-regress-baseline", degradedPath)
	if !strings.Contains(out, "regression/"+key) || !strings.Contains(out, "below baseline") {
		t.Fatalf("degraded baseline raised no regression alert:\n%s", out)
	}
}
