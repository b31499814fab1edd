// Command a4nn-analyze is the CLI counterpart of the paper's
// Jupyter-notebook analyzer (§2.4): it queries a data commons produced by
// cmd/a4nn -store, summarises runs, inspects individual record trails
// (learning-curve sparklines, prediction histories), and renders
// architectures as ASCII or Graphviz DOT.
//
// Usage:
//
//	a4nn-analyze -store DIR list
//	a4nn-analyze -store DIR export            # record trails as DIR/records/<id>.json
//	a4nn-analyze -store DIR summary [-beam low]
//	a4nn-analyze -store DIR show MODEL-ID
//	a4nn-analyze -store DIR dot MODEL-ID      # Graphviz to stdout
//	a4nn-analyze -store DIR top [-n 5]        # best models by fitness
//	a4nn-analyze -store DIR correlate         # accuracy vs FLOPs (§6)
//	a4nn-analyze -store DIR diversity         # structural similarity (§6)
//	a4nn-analyze -store DIR gens              # per-generation convergence
//	a4nn-analyze -store DIR telemetry         # utilisation, queue wait, savings
//	a4nn-analyze -store DIR profile           # per-layer time and FLOP breakdown
//	a4nn-analyze -store DIR health            # alert history from the health monitor
//	a4nn-analyze -store DIR recovery          # crash-recovery history (resumes, quarantines)
//	a4nn-analyze -store DIR jobs              # job-service manifests under DIR/jobs
//	a4nn-analyze -store DIR postmortem        # decode crash flight-recorder bundles
//	a4nn-analyze -store DIR series            # run-history series catalogue (from -history)
//	a4nn-analyze -store DIR series NAME       # one series: stats and sparkline
//	a4nn-analyze -store DIR -baseline-out base.json series   # export regression baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"a4nn/internal/analyzer"
	"a4nn/internal/commons"
	"a4nn/internal/core"
	"a4nn/internal/genome"
	"a4nn/internal/health"
	"a4nn/internal/jobs"
	"a4nn/internal/lineage"
	"a4nn/internal/obs"
	"a4nn/internal/tsdb"
)

func main() {
	var (
		storeDir    = flag.String("store", "", "data commons directory (required)")
		beam        = flag.String("beam", "", "filter by beam (low, medium, high)")
		topN        = flag.Int("n", 5, "how many models 'top' lists")
		baselineOut = flag.String("baseline-out", "", "with 'series': also export a regression baseline JSON (feed it to a4nn -regress-baseline)")
	)
	flag.Parse()
	if *storeDir == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: a4nn-analyze -store DIR {list|export|summary|show ID|dot ID|top|...}")
		os.Exit(2)
	}
	store, err := commons.Open(*storeDir)
	if err != nil {
		fatal(err)
	}

	switch cmd := flag.Arg(0); cmd {
	case "export":
		n, err := store.Export()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("exported %d record trail(s) to %s\n", n, filepath.Join(*storeDir, "records"))
	case "list":
		ids, err := store.List()
		if err != nil {
			fatal(err)
		}
		for _, id := range ids {
			fmt.Println(id)
		}
	case "summary":
		sum, err := store.Summarize(*beam)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("records:            %d\n", sum.Records)
		fmt.Printf("epochs trained:     %d (mean %.1f per network)\n", sum.TotalEpochsTrained, sum.MeanEpochsTrained)
		fmt.Printf("terminated early:   %d\n", sum.TerminatedEarly)
		fmt.Printf("mean final fitness: %.2f%%\n", sum.MeanFinalFitness)
		fmt.Printf("best final fitness: %.2f%%\n", sum.BestFinalFitness)
		fmt.Printf("simulated training: %.2f h\n", sum.TotalSimSeconds/3600)
	case "show":
		rec := mustRecord(store, flag.Arg(1))
		stats := analyzer.Stats(rec)
		fmt.Printf("model %s (generation %d, %s beam, device %d)\n", rec.ID, rec.Generation, rec.Beam, rec.DeviceID)
		fmt.Printf("genome: %s\n", rec.Genome)
		fmt.Printf("params: %d   FLOPs: %d (%.1f MFLOPs)\n", rec.NumParams, rec.FLOPs, float64(rec.FLOPs)/1e6)
		fmt.Printf("epochs: %d   terminated early: %v   final fitness: %.2f%%\n",
			stats.Epochs, stats.Terminated, stats.FinalFitness)
		fmt.Printf("fitness curve:    %s\n", analyzer.Sparkline(rec.FitnessHistory()))
		if preds := rec.PredictionHistory(); len(preds) > 0 {
			fmt.Printf("prediction curve: %s (%d predictions)\n", analyzer.Sparkline(preds), len(preds))
		}
		g, err := genome.Parse(rec.Genome, rec.NodesPerPhase)
		if err == nil {
			if art, err := analyzer.GenomeASCII(g); err == nil {
				fmt.Printf("\narchitecture:\n%s", art)
			}
		}
		fmt.Printf("\n%s", rec.Architecture)
	case "dot":
		rec := mustRecord(store, flag.Arg(1))
		g, err := genome.Parse(rec.Genome, rec.NodesPerPhase)
		if err != nil {
			fatal(err)
		}
		dot, err := analyzer.GenomeDOT(g, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Print(dot)
	case "top":
		recs, err := store.Query(func(r *lineage.Record) bool {
			return *beam == "" || r.Beam == *beam
		})
		if err != nil {
			fatal(err)
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].FinalFitness > recs[b].FinalFitness })
		if len(recs) > *topN {
			recs = recs[:*topN]
		}
		var rows [][]string
		for _, r := range recs {
			rows = append(rows, []string{
				r.ID,
				fmt.Sprintf("%.2f", r.FinalFitness),
				fmt.Sprintf("%.1f", float64(r.FLOPs)/1e6),
				fmt.Sprint(r.EpochsTrained()),
				fmt.Sprint(r.Terminated),
			})
		}
		fmt.Print(analyzer.FormatTable([]string{"model", "fitness %", "MFLOPs", "epochs", "terminated"}, rows))
	case "gens":
		models := loadModels(store, *beam)
		var rows [][]string
		for _, gs := range analyzer.ByGeneration(models) {
			rows = append(rows, []string{
				fmt.Sprint(gs.Generation),
				fmt.Sprint(gs.Models),
				fmt.Sprintf("%.2f", gs.BestFitness),
				fmt.Sprintf("%.2f", gs.MeanFitness),
				fmt.Sprintf("%.1f", gs.MeanMFLOPs),
			})
		}
		fmt.Print(analyzer.FormatTable(
			[]string{"generation", "models", "best fitness %", "mean fitness %", "mean MFLOPs"}, rows))
	case "telemetry":
		// The run journals events.jsonl and flushes metrics.json next to
		// the lineage records, so the store directory is the telemetry root.
		t, err := obs.LoadTelemetry(*storeDir)
		if err != nil {
			fatal(fmt.Errorf("load telemetry: %w (record it with cmd/a4nn -store)", err))
		}
		fmt.Print(analyzer.FormatTelemetry(t))
	case "profile":
		// The layer profile lives in the metrics snapshot alone.
		var snap obs.Snapshot
		data, err := os.ReadFile(filepath.Join(*storeDir, obs.MetricsFile))
		if err == nil {
			err = json.Unmarshal(data, &snap)
		}
		if err != nil {
			fatal(fmt.Errorf("load metrics: %w (record them with cmd/a4nn -profile-layers -store)", err))
		}
		fmt.Print(analyzer.FormatLayerProfile(&snap))
	case "health":
		// The health engine appends alert transitions next to the lineage
		// records; fold them into each alert's final state.
		alerts, err := health.ReadAlerts(filepath.Join(*storeDir, health.AlertsFile))
		if err != nil {
			fatal(fmt.Errorf("load alerts: %w (record them with cmd/a4nn -health -store)", err))
		}
		fmt.Print(analyzer.FormatAlerts(alerts))
	case "recovery":
		events, err := obs.ReadEvents(filepath.Join(*storeDir, obs.EventsFile))
		if err != nil {
			fatal(fmt.Errorf("load events: %w (record them with cmd/a4nn -store)", err))
		}
		fmt.Print(analyzer.FormatRecovery(events))
		// A model the journal saw start but not finish, or a checkpoint
		// file still on disk, means a run is in flight or a crash has not
		// been resumed yet.
		unfinished := map[string]bool{}
		inFlight, err := store.Unfinished()
		if err != nil {
			fatal(err)
		}
		for id := range inFlight {
			unfinished[id] = true
		}
		ids, _ := store.Checkpoints()
		for _, id := range ids {
			unfinished[id] = true
		}
		if len(unfinished) > 0 {
			fmt.Printf("unfinished models: %d (resume with cmd/a4nn -store DIR -resume)\n", len(unfinished))
		}
	case "jobs":
		// The job service keeps one manifest per submission under
		// <store>/jobs; this is the offline view of the fleet.
		manifests, err := jobs.ReadManifests(filepath.Join(*storeDir, "jobs"))
		if err != nil {
			fatal(err)
		}
		if len(manifests) == 0 {
			fmt.Println("no jobs recorded (submit with a4nn-serve -jobs)")
			return
		}
		var rows [][]string
		for _, m := range manifests {
			shape := fmt.Sprintf("%d+%d×%d", m.Config.Population, m.Config.Offspring, m.Config.Generations)
			dur := "–"
			if !m.Finished.IsZero() && !m.Created.IsZero() {
				dur = m.Finished.Sub(m.Created).Round(time.Second).String()
			}
			note := m.Error
			if note == "" && m.Resumes > 0 {
				note = fmt.Sprintf("resumed ×%d", m.Resumes)
			}
			rows = append(rows, []string{
				m.Config.ID, string(m.State), m.Config.Beam, shape,
				fmt.Sprint(m.Config.Seed), fmt.Sprint(m.Config.Priority), dur, note,
			})
		}
		fmt.Print(analyzer.FormatTable(
			[]string{"job", "state", "beam", "shape", "seed", "prio", "duration", "note"}, rows))
	case "postmortem":
		// Flight-recorder bundles land under <dir>/postmortem for plain
		// runs and <store>/jobs/<id>/postmortem for job-service tenants;
		// sweep both so one command covers either deployment shape.
		paths, err := obs.FindBundles(*storeDir)
		if err != nil {
			fatal(err)
		}
		if jobDirs, err := filepath.Glob(filepath.Join(*storeDir, "jobs", "*")); err == nil {
			for _, jd := range jobDirs {
				if more, err := obs.FindBundles(jd); err == nil {
					paths = append(paths, more...)
				}
			}
		}
		if len(paths) == 0 {
			fmt.Println("no postmortem bundles found (they are written on fatal errors, chaos kills, and unresolved-critical shutdowns)")
			return
		}
		for i, p := range paths {
			pm, err := obs.DecodeBundle(p)
			if err != nil {
				// A torn bundle is itself a finding; report it and keep
				// decoding the rest.
				fmt.Fprintf(os.Stderr, "a4nn-analyze: %s: %v\n", p, err)
				continue
			}
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(analyzer.FormatPostmortem(pm, 10))
		}
	case "series":
		// The sampler persists the run's metrics history next to the
		// lineage records; decode it read-only (torn tails tolerated).
		db, err := tsdb.OpenRead(*storeDir)
		if err != nil {
			fatal(fmt.Errorf("load history: %w (record it with cmd/a4nn -history -store)", err))
		}
		infos := db.Series()
		if name := flag.Arg(1); name != "" {
			res, err := db.Query(name, 0, 0, 0)
			if err != nil {
				fatal(err)
			}
			if len(res.Points) == 0 {
				fatal(fmt.Errorf("series %s has no samples", name))
			}
			vals := make([]float64, len(res.Points))
			minV, maxV, sum, gaps := res.Points[0].V, res.Points[0].V, 0.0, 0
			for i, p := range res.Points {
				vals[i] = p.V
				sum += p.V
				if p.V < minV {
					minV = p.V
				}
				if p.V > maxV {
					maxV = p.V
				}
				if p.Gap {
					gaps++
				}
			}
			first := time.UnixMilli(res.Points[0].T).UTC()
			last := time.UnixMilli(res.Points[len(res.Points)-1].T).UTC()
			fmt.Printf("series %s\n", name)
			fmt.Printf("samples: %d   window: %s → %s (%s)   gaps: %d\n",
				len(res.Points), first.Format(time.RFC3339), last.Format(time.RFC3339),
				last.Sub(first).Round(time.Second), gaps)
			fmt.Printf("min: %.4g   mean: %.4g   max: %.4g   last: %.4g\n",
				minV, sum/float64(len(vals)), maxV, vals[len(vals)-1])
			fmt.Printf("history: %s\n", analyzer.Sparkline(vals))
		} else {
			var rows [][]string
			for _, info := range infos {
				span := "–"
				if info.Samples > 0 {
					span = time.UnixMilli(info.MaxT).Sub(time.UnixMilli(info.MinT)).Round(time.Second).String()
				}
				rows = append(rows, []string{info.Name, fmt.Sprint(info.Samples), span})
			}
			fmt.Print(analyzer.FormatTable([]string{"series", "samples", "span"}, rows))
		}
		if *baselineOut != "" {
			names := make([]string, 0, len(infos))
			for _, info := range infos {
				names = append(names, info.Name)
			}
			base := health.BaselineFrom(db.Mean, names, 0, 0)
			if err := base.Save(*baselineOut); err != nil {
				fatal(err)
			}
			fmt.Printf("baseline over %d series written to %s (compare a future run with a4nn -regress-baseline)\n",
				len(base.Series), *baselineOut)
		}
	case "correlate":
		models := loadModels(store, *beam)
		fmt.Println(analyzer.AccuracyFLOPsCorrelation(models))
	case "diversity":
		models := loadModels(store, *beam)
		var all []*genome.Genome
		for _, m := range models {
			if m.Genome != nil {
				all = append(all, m.Genome)
			}
		}
		rep, err := analyzer.Diversity(all)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("all evaluated:  %s\n", rep)
		pareto := analyzer.ParetoGenomes(models)
		if len(pareto) > 1 {
			prep, err := analyzer.Diversity(pareto)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("Pareto set:     %s\n", prep)
		} else {
			fmt.Printf("Pareto set:     %d genome(s), diversity undefined\n", len(pareto))
		}
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
}

// loadModels reconstructs ModelResults from the commons' record trails so
// the analyzer's run-level statistics apply to stored runs.
func loadModels(store *commons.Store, beam string) []*core.ModelResult {
	recs, err := store.Query(func(r *lineage.Record) bool {
		return beam == "" || r.Beam == beam
	})
	if err != nil {
		fatal(err)
	}
	if len(recs) == 0 {
		fatal(fmt.Errorf("no records in store"))
	}
	models := make([]*core.ModelResult, 0, len(recs))
	skipped := 0
	for _, r := range recs {
		// Micro-space records carry a cell encoding; macro analyses skip
		// them rather than fail.
		g, err := genome.Parse(r.Genome, r.NodesPerPhase)
		if err != nil {
			skipped++
			models = append(models, &core.ModelResult{
				Record:  r,
				Fitness: r.FinalFitness,
				MFLOPs:  float64(r.FLOPs) / 1e6,
			})
			continue
		}
		models = append(models, &core.ModelResult{
			Genome:  g,
			Record:  r,
			Fitness: r.FinalFitness,
			MFLOPs:  float64(r.FLOPs) / 1e6,
		})
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "a4nn-analyze: %d records are not macro genomes; structural analyses skip them\n", skipped)
	}
	return models
}

func mustRecord(store *commons.Store, id string) *lineage.Record {
	if id == "" {
		fatal(fmt.Errorf("missing model ID"))
	}
	rec, err := store.GetRecord(id)
	if err != nil {
		fatal(err)
	}
	return rec
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "a4nn-analyze:", err)
	os.Exit(1)
}
