// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md §4. Each
// benchmark reports the headline shape metrics of its figure through
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// experiment harness (cmd/experiments prints the same data as tables).
package a4nn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"a4nn/internal/analyzer"
	"a4nn/internal/core"
	"a4nn/internal/dataset"
	"a4nn/internal/experiments"
	"a4nn/internal/genome"
	"a4nn/internal/predict"
	"a4nn/internal/sched"
	"a4nn/internal/simtrain"
	"a4nn/internal/xfel"
	"a4nn/internal/xpsi"
)

// BenchmarkFig2PredictionConvergence traces the prediction engine on one
// learning curve (Figure 2) and reports the convergence epoch.
func BenchmarkFig2PredictionConvergence(b *testing.B) {
	var converged int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(3)
		if err != nil {
			b.Fatal(err)
		}
		converged = r.ConvergedAt
	}
	b.ReportMetric(float64(converged), "converge-epoch")
}

// BenchmarkFig6ParetoFrontiers runs one full A4NN search per beam and
// extracts the Pareto frontier (Figure 6); it reports the best accuracy
// found on the medium beam.
func BenchmarkFig6ParetoFrontiers(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSearch(xfel.MediumBeam, experiments.A4NN1, 1)
		if err != nil {
			b.Fatal(err)
		}
		front := analyzer.ParetoFrontier(res.Models)
		if len(front) == 0 {
			b.Fatal("empty frontier")
		}
		best = analyzer.BestAccuracy(res.Models)
	}
	b.ReportMetric(best, "best-accuracy-%")
}

// BenchmarkFig7EpochSavings runs A4NN and standalone on the medium beam
// (Figure 7) and reports the percentage of epochs saved.
func BenchmarkFig7EpochSavings(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		a4, err := experiments.RunSearch(xfel.MediumBeam, experiments.A4NN1, 1)
		if err != nil {
			b.Fatal(err)
		}
		std, err := experiments.RunSearch(xfel.MediumBeam, experiments.Standalone, 1)
		if err != nil {
			b.Fatal(err)
		}
		saved = 100 * (1 - float64(a4.TotalEpochs)/float64(std.TotalEpochs))
	}
	b.ReportMetric(saved, "epochs-saved-%")
}

// BenchmarkFig8TerminationHistogram runs an A4NN search per beam and
// reports the mean termination epoch on the low beam (Figure 8's
// late-convergence case).
func BenchmarkFig8TerminationHistogram(b *testing.B) {
	var meanEt, termPct float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSearch(xfel.LowBeam, experiments.A4NN1, 1)
		if err != nil {
			b.Fatal(err)
		}
		ets := res.TerminationEpochs()
		if _, err := analyzer.HistogramInts(ets, 5, 25, 3); err != nil {
			b.Fatal(err)
		}
		meanEt = analyzer.MeanInt(ets)
		termPct = 100 * float64(len(ets)) / float64(len(res.Models))
	}
	b.ReportMetric(meanEt, "mean-et")
	b.ReportMetric(termPct, "terminated-%")
}

// BenchmarkFig9WallTime runs A4NN on one and four devices (Figure 9) and
// reports the 4-device wall-time speed-up.
func BenchmarkFig9WallTime(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		one, err := experiments.RunSearch(xfel.HighBeam, experiments.A4NN1, 1)
		if err != nil {
			b.Fatal(err)
		}
		four, err := experiments.RunSearch(xfel.HighBeam, experiments.A4NN4, 1)
		if err != nil {
			b.Fatal(err)
		}
		speedup = one.Totals.WallSeconds / four.Totals.WallSeconds
	}
	b.ReportMetric(speedup, "4gpu-speedup-x")
}

// BenchmarkPredictionEngineOverhead measures one Algorithm-1 interaction
// with the prediction engine — the §4.3.1 overhead (the paper reports
// ~28 ms per interaction on their platform).
func BenchmarkPredictionEngineOverhead(b *testing.B) {
	engine, err := predict.NewEngine(predict.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	xs, hist := make([]float64, 0, 12), make([]float64, 0, 12)
	for e := 1; e <= 12; e++ {
		xs = append(xs, float64(e))
		hist = append(hist, 92-math.Exp(0.4*(2-float64(e)))+rng.NormFloat64()*0.2)
	}
	preds := []float64{91.8, 91.9, 92.0}
	ePred := float64(predict.DefaultConfig().EPred)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, ok := engine.PredictAt(xs, hist, ePred); ok {
			preds[i%3] = p
		}
		engine.Converged(preds)
	}
}

// BenchmarkTable3XPSIComparison trains the real XPSI baseline on a
// high-beam dataset (Table 3) and reports its accuracy.
func BenchmarkTable3XPSIComparison(b *testing.B) {
	params := xfel.DefaultSimulatorParams()
	params.Size = 16
	params.OrientationSpread = 0.35
	sim, err := xfel.NewSimulator(11, params)
	if err != nil {
		b.Fatal(err)
	}
	pats, err := sim.GenerateBatch(12, 240, xfel.HighBeam)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.FromPatterns(pats)
	if err != nil {
		b.Fatal(err)
	}
	train, test, err := ds.Split(0.8, rand.New(rand.NewSource(13)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		pipe, err := xpsi.Train(train, xpsi.DefaultConfig(), 14)
		if err != nil {
			b.Fatal(err)
		}
		acc, err = pipe.Evaluate(test)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(acc, "xpsi-accuracy-%")
}

// ablationCohort trains a cohort of surrogate models under the given
// engine configuration and returns (epochs saved fraction, mean absolute
// prediction error of terminated models against their true asymptote).
func ablationCohort(b *testing.B, cfg predict.Config, n int) (saved float64, termPct float64) {
	b.Helper()
	engine, err := predict.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	trainer, err := simtrain.ForBeam(xfel.MediumBeam)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	totalEpochs, terminated := 0, 0
	for i := 0; i < n; i++ {
		g, err := genome.NewRandom(rng, 3, 4)
		if err != nil {
			b.Fatal(err)
		}
		m, err := trainer.NewModel(g, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		orch := &core.Orchestrator{Engine: engine, MaxEpochs: 25}
		out, err := orch.TrainModel(context.Background(), m, sched.Device{Throughput: 1e12}, 100, nil)
		if err != nil {
			b.Fatal(err)
		}
		totalEpochs += out.EpochsTrained
		if out.Terminated {
			terminated++
		}
	}
	return 100 * (1 - float64(totalEpochs)/float64(n*25)), 100 * float64(terminated) / float64(n)
}

// BenchmarkAblationCurveFamilies compares the paper's a−b^(c−x) family
// against the power-law and last-value alternatives (DESIGN.md §4).
func BenchmarkAblationCurveFamilies(b *testing.B) {
	for _, tc := range []struct {
		name   string
		family predict.CurveFamily
	}{
		{"ExpApproach", predict.ExpApproach{}},
		{"PowerLaw", predict.PowerLaw{}},
		{"Logistic", predict.Logistic{}},
		{"LastValue", predict.LastValue{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := predict.DefaultConfig()
			cfg.Family = tc.family
			if cfg.CMin < tc.family.NumParams() {
				cfg.CMin = tc.family.NumParams()
			}
			var saved, term float64
			for i := 0; i < b.N; i++ {
				saved, term = ablationCohort(b, cfg, 40)
			}
			b.ReportMetric(saved, "epochs-saved-%")
			b.ReportMetric(term, "terminated-%")
		})
	}
}

// BenchmarkAblationNr sweeps the convergence window N and tolerance r.
func BenchmarkAblationNr(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
		r    float64
	}{
		{"N2_r0.5", 2, 0.5},
		{"N3_r0.5", 3, 0.5}, // the paper's setting
		{"N5_r0.5", 5, 0.5},
		{"N3_r0.1", 3, 0.1},
		{"N3_r2.0", 3, 2.0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := predict.DefaultConfig()
			cfg.N, cfg.R = tc.n, tc.r
			var saved float64
			for i := 0; i < b.N; i++ {
				saved, _ = ablationCohort(b, cfg, 40)
			}
			b.ReportMetric(saved, "epochs-saved-%")
		})
	}
}

// BenchmarkAblationCmin sweeps the minimum history before predicting.
func BenchmarkAblationCmin(b *testing.B) {
	for _, cmin := range []int{3, 5, 8} {
		b.Run(map[int]string{3: "Cmin3", 5: "Cmin5", 8: "Cmin8"}[cmin], func(b *testing.B) {
			cfg := predict.DefaultConfig()
			cfg.CMin = cmin
			var saved float64
			for i := 0; i < b.N; i++ {
				saved, _ = ablationCohort(b, cfg, 40)
			}
			b.ReportMetric(saved, "epochs-saved-%")
		})
	}
}

// BenchmarkAblationRecencyWeight sweeps the fit's recency weighting
// (0 = the paper's uniform weighting).
func BenchmarkAblationRecencyWeight(b *testing.B) {
	for _, tc := range []struct {
		name string
		w    float64
	}{{"uniform", 0}, {"recency1", 1}, {"recency3", 3}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := predict.DefaultConfig()
			cfg.RecencyWeight = tc.w
			var saved float64
			for i := 0; i < b.N; i++ {
				saved, _ = ablationCohort(b, cfg, 40)
			}
			b.ReportMetric(saved, "epochs-saved-%")
		})
	}
}

// BenchmarkAblationScheduling compares FIFO dynamic scheduling (the
// paper's Ray policy) against static round-robin on the task durations of
// a real A4NN generation mix.
func BenchmarkAblationScheduling(b *testing.B) {
	res, err := experiments.RunSearch(xfel.HighBeam, experiments.A4NN1, 1)
	if err != nil {
		b.Fatal(err)
	}
	durations := make([]float64, len(res.Models))
	for i, m := range res.Models {
		durations[i] = m.Record.SimSeconds()
	}
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		fifo, err := sched.SimulateFIFO(4, durations)
		if err != nil {
			b.Fatal(err)
		}
		rr, err := sched.SimulateRoundRobin(4, durations)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rr.WallSeconds / fifo.WallSeconds
	}
	b.ReportMetric(ratio, "rr/fifo-makespan")
}

// BenchmarkFullSuite runs the entire evaluation grid once per iteration —
// the cost of regenerating every figure of the paper.
func BenchmarkFullSuite(b *testing.B) {
	if testing.Short() {
		b.Skip("full grid in -short mode")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSuite(1); err != nil {
			b.Fatal(err)
		}
	}
}
