// Command a4nn-serve exposes a data commons over HTTP — the shareable
// interface counterpart of the paper's Dataverse deposit (§2.3): a
// read-only JSON API plus an HTML index with per-model learning-curve
// sparklines.
//
// Usage:
//
//	a4nn-serve -store ./runs -addr :8080
//	a4nn-serve -store ./runs -follow          # + live /events SSE and /dashboard
//	a4nn-serve -store ./runs -follow -health  # + /healthz and /api/alerts
//	curl localhost:8080/api/summary
//	curl localhost:8080/api/records/<id>/dot | dot -Tsvg > model.svg
//
// With -jobs the server becomes a multi-tenant search service: POST
// /api/jobs submits searches that run in this process, queued over a
// shared device fleet (-fleet slots) with weighted fair-share
// scheduling, each in its own commons directory under <store>/jobs.
// -resume continues every search a killed service left unfinished:
//
//	a4nn-serve -store ./runs -jobs -fleet 4 -resume
//	curl -X POST localhost:8080/api/jobs -d '{"seed":42,"priority":20}'
//	open http://localhost:8080/fleet
//
// With -history the service samples its metrics roll-up (and each job's
// scope) into on-disk series stores, serving range queries on
// /api/query and /api/jobs/{id}/query and historical chart backfill on
// /dashboard and /fleet:
//
//	a4nn-serve -store ./runs -jobs -history 5s
//	curl 'localhost:8080/api/query?series=a4nn_fleet_in_use_slots&step=60000'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"a4nn/internal/chaos"
	"a4nn/internal/commons"
	"a4nn/internal/health"
	"a4nn/internal/jobs"
	"a4nn/internal/obs"
	"a4nn/internal/runenv"
	"a4nn/internal/tsdb"
	"a4nn/internal/webui"
)

func main() {
	var (
		storeDir  = flag.String("store", "", "data commons directory (required)")
		addr      = flag.String("addr", "localhost:8080", "listen address")
		follow    = flag.Bool("follow", false, "tail the store's events.jsonl and stream it live on /events and /dashboard")
		healthOn  = flag.Bool("health", false, "run the in-situ health monitor over the followed event stream and serve /healthz and /api/alerts (requires -follow; -health-config implies it)")
		healthCfg = flag.String("health-config", "", `health thresholds (implies -health), e.g. "divergence-window=5;min-capacity=0.6"`)
		jobsOn    = flag.Bool("jobs", false, "accept search submissions on POST /api/jobs and run them in-process over a shared device fleet")
		fleetN    = flag.Int("fleet", 4, "device slots in the shared fleet (requires -jobs)")
		resumeOn  = flag.Bool("resume", false, "resume every non-terminal job found under <store>/jobs (requires -jobs)")
		sloSpec   = flag.String("slo", "", `per-job service-level objectives (requires -jobs), e.g. "queue_wait_p99=2s,job_turnaround=10m,event_drop_rate=0.01"`)
		chaosSpec = flag.String("chaos", "", `crash-injection plan for fault drills against the job service, e.g. "crash=core.generation.commit@2;seed=7"`)
		histEvery = flag.Duration("history", 0, "sample service and per-job metrics into on-disk series stores at this interval (e.g. 5s; 0 = off), serving range queries on /api/query and /api/jobs/{id}/query")
	)
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "usage: a4nn-serve -store DIR [-addr host:port] [-follow [-health]]")
		os.Exit(2)
	}
	*healthOn = *healthOn || *healthCfg != ""
	if *healthOn && !*follow {
		fatal(errors.New("-health (or -health-config) needs -follow (the monitor consumes the live event stream)"))
	}
	if !*jobsOn && *resumeOn {
		fatal(errors.New("-resume needs -jobs (it recovers interrupted job submissions)"))
	}
	if *sloSpec != "" && !*jobsOn {
		fatal(errors.New("-slo needs -jobs (objectives are tracked per job)"))
	}
	var slo *health.SLO
	if *sloSpec != "" {
		var err error
		if slo, err = health.ParseSLO(*sloSpec); err != nil {
			fatal(err)
		}
	}
	// Arm the crash plan before the first job starts so every journal
	// append and generation commit inside the service is eligible. The
	// injected kill dumps each armed job's flight-recorder bundle into
	// its own directory on the way down (see internal/obs).
	if *chaosSpec != "" {
		plan, err := chaos.Parse(*chaosSpec)
		if err != nil {
			fatal(err)
		}
		chaos.Install(plan)
		fmt.Printf("chaos plan armed: %s\n", *chaosSpec)
	}
	store, err := commons.Open(*storeDir)
	if err != nil {
		fatal(err)
	}
	srv, err := webui.New(store)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving data commons %s on http://%s\n", *storeDir, ln.Addr())

	// SIGINT/SIGTERM drain in-flight requests before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One service-level run environment backs every mode: -jobs rolls
	// every job's metrics scope up into its registry (served on /metrics
	// with `job="id"` labels, bounded by live jobs), -follow pumps the
	// followed journal through it (with -health, into a sidecar engine
	// watching the stream the dashboard renders, so a plain viewer doubles
	// as the alerting endpoint for a search running elsewhere), and
	// -history samples the roll-up into <store>/series.a4ts, feeding
	// /api/query and the historical charts across restarts. The store
	// belongs to the runs it holds, so the series file is all this process
	// writes there.
	var env *runenv.Stack
	if *jobsOn || *follow || *histEvery > 0 {
		opts := runenv.Options{History: *histEvery, SeriesOnly: true}
		if *healthOn {
			cfg, err := health.ParseConfig(*healthCfg)
			if err != nil {
				fatal(err)
			}
			opts.Health = &cfg
		}
		if env, err = runenv.Open(*storeDir, opts); err != nil {
			fatal(err)
		}
		srv.SetRun(webui.Run{Obs: env.Observer(), Health: env.Health(), History: env.History()})
	}
	observer := env.Observer()

	var manager *jobs.Manager
	if *jobsOn {
		manager, err = jobs.NewManager(jobs.Options{
			Root:       filepath.Join(*storeDir, "jobs"),
			FleetSlots: *fleetN,
			Obs:        observer,
			SLO:        slo,
			History:    *histEvery,
		})
		if err != nil {
			fatal(err)
		}
		if *resumeOn {
			recovered, err := manager.Recover()
			if err != nil {
				fatal(err)
			}
			for _, id := range recovered {
				fmt.Printf("resumed job %s\n", id)
			}
		}
		srv.SetJobs(manager)
		fmt.Printf("job service on — %d fleet slots, submit with POST http://%s/api/jobs, fleet view on http://%s/fleet\n",
			*fleetN, ln.Addr(), ln.Addr())
	}

	if *histEvery > 0 {
		if manager != nil {
			// A fleet snapshot refreshed just before each sample, so slot
			// history is captured even when no job event fires near the tick.
			fleet := manager.Fleet()
			reg := observer.Registry()
			env.Sampler().SetPreSample(func() { webui.FleetGauges(reg, fleet.Status()) })
		}
		fmt.Printf("history sampling every %s into %s\n", *histEvery, filepath.Join(*storeDir, tsdb.SeriesFile))
	}
	if *healthOn {
		fmt.Printf("health monitor on — http://%s/healthz\n", ln.Addr())
	}
	if *follow {
		// Follow mode tails the journal a concurrently running `a4nn
		// -store` search appends to, so this viewer process serves the
		// live dashboard for a run it did not start.
		go obs.FollowFile(ctx, filepath.Join(*storeDir, obs.EventsFile), observer.Journal(), 0)
		fmt.Printf("following %s — live dashboard on http://%s/dashboard\n",
			filepath.Join(*storeDir, obs.EventsFile), ln.Addr())
	}
	httpSrv := webui.NewHTTPServer(srv)
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			fatal(err)
		}
		if manager != nil {
			// Interrupt running searches without writing terminal states:
			// their manifests stay non-terminal, so a restart with
			// -jobs -resume continues each one from its checkpoints.
			dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer dcancel()
			if err := manager.Close(dctx); err != nil {
				fatal(err)
			}
		}
	}
	// Close the service environment last, after the manager closed its
	// per-job ones. A relaunch with the same -store appends to the same
	// series files, so range queries span restarts.
	if err := env.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "a4nn-serve:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "a4nn-serve:", err)
	os.Exit(1)
}
