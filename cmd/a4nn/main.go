// Command a4nn runs one architecture search — A4NN (with the prediction
// engine) or the standalone-NAS baseline — on either the calibrated
// surrogate trainer or a real XFEL dataset generated by cmd/xfelgen.
//
// Examples:
//
//	a4nn -beam medium                         # A4NN, surrogate, 1 device
//	a4nn -beam high -devices 4 -store ./runs  # distributed + data commons
//	a4nn -standalone -beam low                # NSGA-Net baseline
//	a4nn -data patterns.gob -epochs 8         # real training on a dataset
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"a4nn"
	"a4nn/internal/analyzer"
	"a4nn/internal/dataset"
	"a4nn/internal/health"
	"a4nn/internal/obs"
	"a4nn/internal/runenv"
	"a4nn/internal/tsdb"
	"a4nn/internal/webui"
)

func main() {
	var (
		beamName    = flag.String("beam", "medium", "beam intensity: low, medium, or high")
		devices     = flag.Int("devices", 1, "number of simulated accelerators")
		standalone  = flag.Bool("standalone", false, "disable the prediction engine (baseline)")
		dataPath    = flag.String("data", "", "dataset file from xfelgen; empty selects the surrogate trainer")
		storeDir    = flag.String("store", "", "data commons directory for record trails, per-epoch model checkpoints (so -resume continues inside an interrupted generation) and the run's telemetry (events.jsonl, metrics.json)")
		snapshots   = flag.Bool("snapshots", false, "also store per-epoch model states (requires -store)")
		replayDir   = flag.String("replay", "", "replay record trails from this commons instead of retraining")
		seed        = flag.Int64("seed", 1, "random seed")
		population  = flag.Int("population", 10, "starting population size (Table 2)")
		offspring   = flag.Int("offspring", 10, "offspring per generation (Table 2)")
		generations = flag.Int("generations", 10, "number of generations (Table 2)")
		epochs      = flag.Int("epochs", 25, "training epochs per network (Table 2)")
		faultSpec   = flag.String("faults", "", `fault injection plan, e.g. "transient=0.05;crash=1@2;seed=7"`)
		retries     = flag.Int("retries", 0, "max attempts per task (0: 1, or 3 with -faults)")
		taskTimeout = flag.Float64("task-timeout", 0, "per-attempt simulated deadline in seconds (0 = off)")
		resume      = flag.Bool("resume", false, "recover and replay completed work from -store before training (crash recovery)")
		chaosSpec   = flag.String("chaos", "", `crash-injection plan for fault drills, e.g. "crash=journal.append.pre_write@40;seed=7" (see a4nn.ChaosPoints)`)
		metricsAddr = flag.String("metrics-addr", "", `serve the run's live routes on this address (e.g. ":9090"): /metrics, the /events SSE stream, the /dashboard page, and /healthz with health on and /api/query with -history`)
		profLayers  = flag.Bool("profile-layers", false, "account per-layer forward/backward time and FLOPs (real training only, so pair with -data; see a4nn-analyze profile)")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof on -metrics-addr (requires -metrics-addr); never enable on a publicly reachable address")
		healthFlag  = flag.Bool("health", false, "run the in-situ health monitor with default thresholds (every health flag below implies it); alerts persist to alerts.jsonl with -store and serve at /healthz with -metrics-addr")
		healthSpec  = flag.String("health-config", "", `health thresholds, e.g. "divergence-window=5;min-capacity=0.6;gc-pause-ms=20"`)
		sloSpec     = flag.String("slo", "", `service-level objectives with error-budget burn alerts, e.g. "queue_wait_p99=2s,job_turnaround=10m,event_drop_rate=0.01"`)
		strictOn    = flag.Bool("health-strict", false, "exit non-zero (code 3) when critical health alerts are still unresolved at the end of the run")
		history     = flag.Duration("history", 0, "sample metrics at this interval (e.g. 5s; 0 = off) into an on-disk time-series store: series.a4ts in the -store directory; query with a4nn-analyze series or GET /api/query")
		baselineIn  = flag.String("regress-baseline", "", "baseline JSON (from a4nn-analyze series -baseline-out) to compare live series against (requires -history); sustained deviations alert through the health monitor")
	)
	flag.Parse()
	healthOn := *healthFlag || *healthSpec != "" || *sloSpec != "" || *strictOn || *baselineIn != ""

	spec := flagSpec{
		Store:       *storeDir,
		MetricsAddr: *metricsAddr,
		Snapshots:   *snapshots,
		Pprof:       *pprofOn,
		ProfLayers:  *profLayers,
		DataPath:    *dataPath,
		Health:      healthOn,
		Strict:      *strictOn,
		Chaos:       *chaosSpec,
		History:     *history > 0,
		Baseline:    *baselineIn,
	}
	warnings, err := validateFlags(spec)
	if err != nil {
		fatal(err)
	}
	printWarnings(warnings)

	// Arm the crash plan before any durable-state transition so every
	// journal append, record commit, and checkpoint write is eligible.
	if *chaosSpec != "" {
		plan, err := a4nn.ParseChaosPlan(*chaosSpec)
		if err != nil {
			fatal(err)
		}
		a4nn.InstallChaosPlan(plan)
	}

	// The run environment (internal/runenv): observability is on whenever
	// anything consumes it — a metrics listener, the -store directory
	// (whose journal `a4nn-analyze telemetry` folds), the layer profiler,
	// the health monitor or run history.
	if *metricsAddr != "" || *storeDir != "" || *profLayers || healthOn || *history > 0 {
		opts := runenv.Options{History: *history}
		if healthOn {
			healthCfg, err := a4nn.ParseHealthConfig(*healthSpec)
			if err != nil {
				fatal(err)
			}
			if *sloSpec != "" {
				slo, err := health.ParseSLO(*sloSpec)
				if err != nil {
					fatal(err)
				}
				healthCfg.SLO = slo
			}
			// With a journal file, this process publishes its runtime samples
			// so cross-process followers (a4nn-serve -follow -health) monitor
			// the producer's runtime, not their own.
			healthCfg.EmitRuntimeSamples = *storeDir != ""
			// Cross-run regression detection: compare this run's sampled key
			// series against a committed baseline; sustained deviations route
			// through the same alert manager as every other monitor.
			if *baselineIn != "" {
				base, err := health.LoadBaseline(*baselineIn)
				if err != nil {
					fatal(err)
				}
				// Re-judging more often than the sampler writes is useless;
				// pace evaluation to the history cadence.
				healthCfg.Regression = &health.RegressionConfig{Baseline: base, EvalInterval: *history}
			}
			opts.Health = &healthCfg
		}
		if env, err = runenv.Open(*storeDir, opts); err != nil {
			fatal(err)
		}
	}
	observer, healthEng, historyDB := env.Observer(), env.Health(), env.History()
	if *profLayers {
		a4nn.EnableLayerProfiler(observer)
		defer a4nn.DisableLayerProfiler()
	}

	// SIGINT/SIGTERM cancel the run context: in-flight training stops
	// between epochs, the pool drains, and the exit path below still
	// flushes telemetry before the process ends.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		mux := webui.NewRunMux(webui.Run{Obs: observer, Health: healthEng, History: historyDB})
		if *pprofOn {
			// The profiling endpoints expose stack traces, command lines,
			// and CPU/heap captures — only ever bind them to localhost.
			mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
			mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
			mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
			mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
			mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
		}
		metricsSrv = webui.NewHTTPServer(mux)
		go func() {
			if err := metricsSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "a4nn: metrics server:", err)
			}
		}()
		fmt.Printf("serving metrics on http://%s/metrics (live dashboard: /dashboard)\n", ln.Addr())
	}

	shutdownDone := false
	shutdown = func() {
		if shutdownDone {
			return
		}
		shutdownDone = true
		if metricsSrv != nil {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if err := metricsSrv.Shutdown(sctx); err != nil {
				fmt.Fprintln(os.Stderr, "a4nn: metrics shutdown:", err)
			}
			cancel()
		}
		// The environment's Close also runs on the fatal path (which skips
		// deferred calls), so buffered events and alerts are never left
		// behind; its order is runenv's.
		a4nn.SyncLayerProfiler()
		if err := env.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "a4nn:", err)
		}
	}
	defer shutdown()

	// The search itself is the one a job submission with these values
	// runs (jobs.BuildSearchConfig), which is what keeps job records
	// byte-identical to this command's; -data swaps the surrogate trainer
	// for real training.
	cfg, err := a4nn.BuildJobSearchConfig(a4nn.JobConfig{
		Beam:        *beamName,
		Devices:     *devices,
		Population:  *population,
		Offspring:   *offspring,
		Generations: *generations,
		Epochs:      *epochs,
		Seed:        *seed,
		Standalone:  *standalone,
	})
	if err != nil {
		fatal(err)
	}
	if *dataPath != "" {
		ds, err := dataset.Load(*dataPath)
		if err != nil {
			fatal(err)
		}
		train, val, err := ds.Split(0.8, rand.New(rand.NewSource(*seed)))
		if err != nil {
			fatal(err)
		}
		cfg.Trainer, err = a4nn.NewRealTrainer(train, val, a4nn.RealTrainerConfig{
			Decode: a4nn.DecodeConfig{
				InShape:    ds.SampleShape(),
				Widths:     []int{8, 16, 32},
				NumClasses: ds.NumClasses,
			},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("real training on %s: %d train / %d val samples\n", *dataPath, train.Len(), val.Len())
	}
	if *storeDir != "" {
		store, err := a4nn.OpenCommons(*storeDir)
		if err != nil {
			fatal(err)
		}
		cfg.Store = store
		cfg.SnapshotEpochs = *snapshots
		cfg.Checkpoints = true // as in every job: -resume continues mid-model
	}
	if *replayDir != "" {
		replay, err := a4nn.OpenCommons(*replayDir)
		if err != nil {
			fatal(err)
		}
		cfg.ReplayFrom = replay
	}
	if *faultSpec != "" {
		plan, err := a4nn.ParseFaultPlan(*faultSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Faults = plan
	}
	cfg.Retry.MaxAttempts = *retries
	cfg.TaskTimeoutSeconds = *taskTimeout
	cfg.Resume = *resume
	cfg.Obs = observer

	mode := "A4NN"
	if *standalone {
		mode = "standalone NSGA-Net"
	}
	fmt.Printf("running %s on %s beam with %d device(s): %d networks × ≤%d epochs\n",
		mode, cfg.Beam, *devices, *population+*offspring*(*generations-1), *epochs)

	res, err := a4nn.RunCtx(ctx, cfg)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "a4nn: interrupted — flushing telemetry")
		}
		fatal(err)
	}

	fullBudget := len(res.Models) * *epochs
	fmt.Printf("\nevaluated networks: %d\n", len(res.Models))
	if res.Replayed > 0 {
		src := *replayDir
		if *resume {
			src = *storeDir
		}
		fmt.Printf("replayed:           %d (from %s)\n", res.Replayed, src)
	}
	if res.GenerationsReplayed > 0 {
		fmt.Printf("resumed past:       %d completed generation(s)\n", res.GenerationsReplayed)
	}
	if res.Resumed > 0 {
		fmt.Printf("checkpoint resumes: %d model(s) continued mid-training\n", res.Resumed)
	}
	if rec := res.Recovery; !rec.Clean() {
		fmt.Printf("crash recovery:     %d quarantined, %d stale checkpoint(s) cleaned, %d orphan temp file(s) removed\n",
			len(rec.Quarantined), rec.StaleCheckpoints, rec.TempsRemoved)
	}
	fmt.Printf("training epochs:    %d / %d (%.1f%% saved)\n",
		res.TotalEpochs, fullBudget, 100*(1-float64(res.TotalEpochs)/float64(fullBudget)))
	fmt.Printf("terminated early:   %d (%.0f%%)\n",
		res.TerminatedEarly, 100*float64(res.TerminatedEarly)/float64(len(res.Models)))
	fmt.Printf("simulated wall:     %.2f h (idle %.2f h across %d devices)\n",
		res.Totals.WallSeconds/3600, res.Totals.IdleSeconds/3600, res.Totals.Devices)
	if res.Overhead.Interactions > 0 {
		fmt.Printf("engine overhead:    %.2f s total, %.3f ms/interaction\n",
			res.Overhead.TotalSeconds, res.Overhead.MeanSeconds*1e3)
	}
	if rel := analyzer.ReliabilityOf(res); rel.Faults > 0 || rel.Retries > 0 {
		fmt.Printf("reliability:        %s\n", rel)
	}

	front := a4nn.ParetoFrontier(res.Models)
	fmt.Printf("\nPareto-optimal models (%d):\n", len(front))
	var rows [][]string
	for _, p := range front {
		rows = append(rows, []string{p.ID, fmt.Sprintf("%.2f", p.Accuracy), fmt.Sprintf("%.1f", p.MFLOPs)})
	}
	fmt.Print(analyzer.FormatTable([]string{"model", "accuracy %", "MFLOPs"}, rows))
	if *storeDir != "" {
		fmt.Printf("\nrecord trails written to %s/%s (a4nn-analyze -store %s export writes them out as records/<id>.json)\n",
			*storeDir, obs.EventsFile, *storeDir)
	}
	if *storeDir != "" {
		files := obs.EventsFile + ", " + obs.MetricsFile
		if healthEng != nil {
			files += ", alerts.jsonl"
		}
		if historyDB != nil {
			files += ", " + tsdb.SeriesFile
		}
		fmt.Printf("telemetry (%s) written to %s\n", files, *storeDir)
	}

	if healthEng != nil {
		// Stop consuming before reading the final state so the summary
		// reflects every event the run emitted.
		if err := healthEng.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "a4nn: health:", err)
		}
		rep := healthEng.Report()
		fmt.Printf("\nhealth: %s (%d active alert(s), %d critical, %d resolved)\n",
			rep.Status, rep.Active, rep.Critical, len(healthEng.ResolvedAlerts()))
		for _, a := range healthEng.ActiveAlerts() {
			fmt.Printf("  [%s] %s: %s (×%d)\n", a.Severity, a.ID, a.Message, a.Count)
		}
		if *strictOn && rep.Critical > 0 {
			dumpPostmortem(fmt.Sprintf("unresolved critical alerts at shutdown: %d", rep.Critical))
			shutdown()
			fmt.Fprintf(os.Stderr, "a4nn: -health-strict: %d unresolved critical alert(s)\n", rep.Critical)
			os.Exit(3)
		}
	}
}

// shutdown flushes telemetry and closes the metrics listener. main
// installs it, and it must also run on the fatal path, which bypasses
// deferred calls via os.Exit.
var (
	shutdown = func() {}
	// env is the run environment (nil when nothing consumes telemetry);
	// its flight recorder is the run's black box, which fatal paths dump
	// before exiting.
	env *runenv.Stack
)

// dumpPostmortem flushes the flight recorder's bundle, reporting where
// it landed. A nil recorder dumps nothing.
func dumpPostmortem(reason string) {
	if env.Recorder() == nil {
		return
	}
	path, err := env.Recorder().Dump(reason)
	if err != nil {
		fmt.Fprintln(os.Stderr, "a4nn: postmortem dump failed:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "a4nn: postmortem bundle written to %s (inspect with a4nn-analyze postmortem)\n", path)
}

func fatal(err error) {
	dumpPostmortem("fatal: " + err.Error())
	shutdown()
	fmt.Fprintln(os.Stderr, "a4nn:", err)
	os.Exit(1)
}
