// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the prediction-engine and NAS configurations (Tables 1
// and 2), the prediction-convergence example (Figure 2), the Pareto
// frontiers (Figure 6), epoch savings (Figure 7), termination-epoch
// distributions (Figure 8), wall times and scalability (Figure 9), the
// engine-overhead measurements (§4.3.1), and the XPSI comparison
// (Table 3). The cmd/experiments binary and the repository-root
// benchmarks are thin wrappers over this package.
//
// The searches use the calibrated surrogate trainer so the full grid
// (3 beams × {standalone, A4NN×1 device, A4NN×4 devices} × 100 networks ×
// 25 epochs) completes in seconds while exercising the real NAS, engine,
// orchestrator, scheduler, and lineage code paths; Table 3's XPSI column
// and the protein_classification example run genuine training.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"a4nn/internal/analyzer"
	"a4nn/internal/core"
	"a4nn/internal/dataset"
	"a4nn/internal/nsga"
	"a4nn/internal/predict"
	"a4nn/internal/sched"
	"a4nn/internal/simtrain"
	"a4nn/internal/tensor"
	"a4nn/internal/xfel"
	"a4nn/internal/xpsi"
)

// Mode identifies a search configuration in the evaluation grid.
type Mode string

// The three modes of the paper's evaluation.
const (
	Standalone Mode = "standalone" // NSGA-Net alone, 1 device
	A4NN1      Mode = "a4nn-1gpu"  // A4NN, 1 device
	A4NN4      Mode = "a4nn-4gpu"  // A4NN, 4 devices
)

// Key addresses one cell of the evaluation grid.
type Key struct {
	Beam xfel.BeamIntensity
	Mode Mode
}

// Suite holds the results of the full evaluation grid.
type Suite struct {
	Seed    int64
	Results map[Key]*core.Result
}

// searchConfig builds the Table 1 + Table 2 configuration for one cell.
func searchConfig(beam xfel.BeamIntensity, mode Mode, seed int64) (core.Config, error) {
	trainer, err := simtrain.ForBeam(beam)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig(trainer)
	cfg.NAS.Seed = seed
	cfg.Beam = beam.String()
	switch mode {
	case Standalone:
		cfg.Engine = nil
	case A4NN1:
		cfg.Devices = 1
	case A4NN4:
		cfg.Devices = 4
	default:
		return core.Config{}, fmt.Errorf("experiments: unknown mode %q", mode)
	}
	return cfg, nil
}

// RunSearch executes one cell of the grid.
func RunSearch(beam xfel.BeamIntensity, mode Mode, seed int64) (*core.Result, error) {
	cfg, err := searchConfig(beam, mode, seed)
	if err != nil {
		return nil, err
	}
	return core.Run(cfg)
}

// RunSuite executes the full grid: 3 beams × 3 modes.
func RunSuite(seed int64) (*Suite, error) {
	s := &Suite{Seed: seed, Results: make(map[Key]*core.Result)}
	for _, beam := range xfel.AllBeams {
		for _, mode := range []Mode{Standalone, A4NN1, A4NN4} {
			res, err := RunSearch(beam, mode, seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", beam, mode, err)
			}
			s.Results[Key{beam, mode}] = res
		}
	}
	return s, nil
}

// get panics with a clear message when a cell is missing; Suite cells are
// always populated by RunSuite, so this indicates harness misuse.
func (s *Suite) get(beam xfel.BeamIntensity, mode Mode) *core.Result {
	r, ok := s.Results[Key{beam, mode}]
	if !ok {
		panic(fmt.Sprintf("experiments: missing suite cell %s/%s", beam, mode))
	}
	return r
}

// Table1 renders the prediction-engine configuration (paper Table 1).
func Table1() string {
	cfg := predict.DefaultConfig()
	rows := [][]string{
		{"F", cfg.Family.Name(), "parametric function for fitness modeling"},
		{"C_min", fmt.Sprint(cfg.CMin), "minimum number of epochs before making a prediction"},
		{"e_pred", fmt.Sprint(cfg.EPred), "epoch for which to predict final fitness"},
		{"N", fmt.Sprint(cfg.N), "number of predictions to consider when converging"},
		{"r", fmt.Sprint(cfg.R), "variance of prediction to tolerate in convergence"},
	}
	return analyzer.FormatTable([]string{"Variable", "Setting", "Description"}, rows)
}

// Table2 renders the NSGA-Net configuration (paper Table 2).
func Table2() string {
	cfg := nsga.DefaultConfig()
	rows := [][]string{
		{"size of starting population", fmt.Sprint(cfg.PopulationSize)},
		{"number of nodes per phase", "4"},
		{"number of offspring per generation", fmt.Sprint(cfg.Offspring)},
		{"number of generations", fmt.Sprint(cfg.Generations)},
		{"number of epochs to train", "25"},
	}
	return analyzer.FormatTable([]string{"Setting", "Value"}, rows)
}

// Fig2Result is the prediction-convergence trace of one network
// (paper Figure 2).
type Fig2Result struct {
	// Fitness[i] is the validation accuracy after epoch i+1.
	Fitness []float64
	// PredEpochs[i] and Predictions[i] are the engine's extrapolations of
	// the fitness at EPred.
	PredEpochs  []int
	Predictions []float64
	// ConvergedAt is the epoch where the analyzer declared convergence
	// (0 when it never did).
	ConvergedAt int
	// FinalPrediction is the fitness reported to the NAS.
	FinalPrediction float64
	EPred           int
}

// Fig2 traces the engine on one well-behaved medium-beam learning curve.
func Fig2(seed int64) (*Fig2Result, error) {
	engine, err := predict.NewEngine(predict.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// A concave curve with mild noise, rising from ~58% toward ~93.5% as
	// in the paper's example, whose prediction converges around epoch 12.
	a, beta := 93.5, 0.35
	c := math.Log(a-58)/beta + 1
	tracker := predict.NewTracker(engine)
	res := &Fig2Result{EPred: engine.Config().EPred}
	for e := 1; e <= 25; e++ {
		v := a - tensor.Exp(beta*(c-float64(e))) + rng.NormFloat64()*0.25
		if v > 100 {
			v = 100
		}
		res.Fitness = append(res.Fitness, v)
		converged := tracker.Observe(v)
		if n := len(tracker.P); n > len(res.Predictions) {
			res.Predictions = append(res.Predictions, tracker.P[n-1])
			res.PredEpochs = append(res.PredEpochs, e)
		}
		if converged {
			res.ConvergedAt = e
			break
		}
	}
	if f, ok := tracker.FinalFitness(); ok {
		res.FinalPrediction = f
	}
	return res, nil
}

// Fig6Series is one Pareto frontier of Figure 6.
type Fig6Series struct {
	Beam   xfel.BeamIntensity
	Mode   Mode
	Points []analyzer.Point
}

// Fig6 extracts the Pareto frontiers (accuracy vs MFLOPs) of the A4NN and
// standalone runs for each beam.
func (s *Suite) Fig6() []Fig6Series {
	var out []Fig6Series
	for _, mode := range []Mode{A4NN1, Standalone} {
		for _, beam := range xfel.AllBeams {
			res := s.get(beam, mode)
			out = append(out, Fig6Series{Beam: beam, Mode: mode, Points: analyzer.ParetoFrontier(res.Models)})
		}
	}
	return out
}

// Fig6Quality scores one beam's frontiers with the hypervolume indicator
// (objectives: 100−accuracy and MFLOPs, reference point (100, 1000)), the
// scalar version of Figure 6's "A4NN's frontier is at least as good".
type Fig6Quality struct {
	Beam         xfel.BeamIntensity
	A4NNHV       float64
	StandaloneHV float64
}

// Fig6Hypervolume computes the hypervolume of the A4NN (1 device) and
// standalone runs for each beam.
func (s *Suite) Fig6Hypervolume() ([]Fig6Quality, error) {
	ref := [2]float64{100, 1000}
	var out []Fig6Quality
	for _, beam := range xfel.AllBeams {
		a, err := nsga.Hypervolume2D(s.get(beam, A4NN1).ParetoObjectives(), ref)
		if err != nil {
			return nil, err
		}
		st, err := nsga.Hypervolume2D(s.get(beam, Standalone).ParetoObjectives(), ref)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6Quality{Beam: beam, A4NNHV: a, StandaloneHV: st})
	}
	return out, nil
}

// Fig7Row is one beam's epoch accounting (paper Figure 7).
type Fig7Row struct {
	Beam             xfel.BeamIntensity
	StandaloneEpochs int
	A4NN1Epochs      int
	A4NN4Epochs      int
	Saved1Pct        float64 // % epochs saved by A4NN on 1 device
	Saved4Pct        float64
}

// Fig7 computes epoch totals and savings per beam.
func (s *Suite) Fig7() []Fig7Row {
	var rows []Fig7Row
	for _, beam := range xfel.AllBeams {
		std := s.get(beam, Standalone).TotalEpochs
		a1 := s.get(beam, A4NN1).TotalEpochs
		a4 := s.get(beam, A4NN4).TotalEpochs
		rows = append(rows, Fig7Row{
			Beam:             beam,
			StandaloneEpochs: std,
			A4NN1Epochs:      a1,
			A4NN4Epochs:      a4,
			Saved1Pct:        100 * (1 - float64(a1)/float64(std)),
			Saved4Pct:        100 * (1 - float64(a4)/float64(std)),
		})
	}
	return rows
}

// Fig8Row is one beam's termination distribution (paper Figure 8).
type Fig8Row struct {
	Beam          xfel.BeamIntensity
	Mode          Mode
	Bins          []analyzer.Bin
	TerminatedPct float64
	MeanEt        float64
}

// Fig8 computes e_t histograms and termination fractions for the A4NN
// runs (standalone models always train all 25 epochs, as in the paper).
func (s *Suite) Fig8() []Fig8Row {
	var rows []Fig8Row
	for _, mode := range []Mode{A4NN1, A4NN4} {
		for _, beam := range xfel.AllBeams {
			res := s.get(beam, mode)
			ets := res.TerminationEpochs()
			bins, err := analyzer.HistogramInts(ets, 5, 25, 3)
			if err != nil {
				panic(err) // static range, cannot fail
			}
			rows = append(rows, Fig8Row{
				Beam:          beam,
				Mode:          mode,
				Bins:          bins,
				TerminatedPct: 100 * float64(len(ets)) / float64(len(res.Models)),
				MeanEt:        analyzer.MeanInt(ets),
			})
		}
	}
	return rows
}

// Fig9Row is one beam's wall-time accounting (paper Figure 9).
type Fig9Row struct {
	Beam            xfel.BeamIntensity
	StandaloneHours float64
	A4NN1Hours      float64
	A4NN4Hours      float64
	SavedHours      float64 // standalone − A4NN(1 device)
	Speedup4        float64 // A4NN 1-device wall / 4-device wall
}

// Fig9 computes simulated wall times and the 4-device speed-ups.
func (s *Suite) Fig9() []Fig9Row {
	var rows []Fig9Row
	for _, beam := range xfel.AllBeams {
		std := s.get(beam, Standalone).Totals.WallSeconds / 3600
		a1 := s.get(beam, A4NN1).Totals.WallSeconds / 3600
		a4 := s.get(beam, A4NN4).Totals.WallSeconds / 3600
		rows = append(rows, Fig9Row{
			Beam:            beam,
			StandaloneHours: std,
			A4NN1Hours:      a1,
			A4NN4Hours:      a4,
			SavedHours:      std - a1,
			Speedup4:        a1 / a4,
		})
	}
	return rows
}

// OverheadRow summarises the measured prediction-engine overhead
// (paper §4.3.1) of one A4NN run.
type OverheadRow struct {
	Beam         xfel.BeamIntensity
	TotalSeconds float64
	MeanMillis   float64
	VarianceMs2  float64
	Interactions int
}

// Overhead reports the engine overhead of the 1-device A4NN runs.
func (s *Suite) Overhead() []OverheadRow {
	var rows []OverheadRow
	for _, beam := range xfel.AllBeams {
		o := s.get(beam, A4NN1).Overhead
		rows = append(rows, OverheadRow{
			Beam:         beam,
			TotalSeconds: o.TotalSeconds,
			MeanMillis:   o.MeanSeconds * 1e3,
			VarianceMs2:  o.VarianceSec2 * 1e6,
			Interactions: o.Interactions,
		})
	}
	return rows
}

// Table3Row compares A4NN against XPSI for one beam (paper Table 3).
type Table3Row struct {
	Beam xfel.BeamIntensity
	// XPSIHours is the baseline's simulated training time at the paper's
	// dataset scale; XPSIAccuracy is measured by real training on the
	// laptop-scale dataset.
	XPSIHours    float64
	XPSIAccuracy float64
	// A4NN numbers come from the surrogate searches (wall) and the best
	// model of the 1-device run (accuracy).
	A4NN1Hours   float64
	A4NN4Hours   float64
	A4NNAccuracy float64
}

// Table3Options sizes the real XPSI training.
type Table3Options struct {
	// Samples is the laptop-scale dataset size (default 400).
	Samples int
	// DetectorSize is the image edge (default 16).
	DetectorSize int
	// OrientationSpread for the generated dataset (default 0.35, hard
	// enough that noise separates the beams).
	OrientationSpread float64
	// Seed drives generation, splitting, and training.
	Seed int64
}

func (o *Table3Options) withDefaults() Table3Options {
	r := Table3Options{Samples: 400, DetectorSize: 16, OrientationSpread: 0.35, Seed: 11}
	if o == nil {
		return r
	}
	if o.Samples > 0 {
		r.Samples = o.Samples
	}
	if o.DetectorSize > 0 {
		r.DetectorSize = o.DetectorSize
	}
	if o.OrientationSpread > 0 {
		r.OrientationSpread = o.OrientationSpread
	}
	if o.Seed != 0 {
		r.Seed = o.Seed
	}
	return r
}

// Table3 trains the real XPSI baseline per beam and pairs it with the
// suite's A4NN results.
func (s *Suite) Table3(opts *Table3Options) ([]Table3Row, error) {
	o := opts.withDefaults()
	var rows []Table3Row
	for _, beam := range xfel.AllBeams {
		params := xfel.DefaultSimulatorParams()
		params.Size = o.DetectorSize
		params.OrientationSpread = o.OrientationSpread
		sim, err := xfel.NewSimulator(o.Seed, params)
		if err != nil {
			return nil, err
		}
		pats, err := sim.GenerateBatch(o.Seed+1, o.Samples, beam)
		if err != nil {
			return nil, err
		}
		ds, err := dataset.FromPatterns(pats)
		if err != nil {
			return nil, err
		}
		train, test, err := ds.Split(0.8, rand.New(rand.NewSource(o.Seed+2)))
		if err != nil {
			return nil, err
		}
		pipe, err := xpsi.Train(train, xpsi.DefaultConfig(), o.Seed+3)
		if err != nil {
			return nil, err
		}
		acc, err := pipe.Evaluate(test)
		if err != nil {
			return nil, err
		}
		// Scale the measured training work to the paper's dataset size so
		// the wall time is comparable with the A4NN columns.
		dev := sched.Device{Throughput: sched.DefaultThroughput}
		scale := float64(simtrain.PaperTrainSamples) / float64(train.Len())
		// The paper's XPSI also processes 8× larger detectors (128² vs
		// our default 16²); FLOPs of the dense autoencoder scale with
		// pixel count.
		pixelScale := float64(128*128) / float64(o.DetectorSize*o.DetectorSize)
		xpsiHours := pipe.SimSeconds(dev) * scale * pixelScale / 3600

		a1 := s.get(beam, A4NN1)
		a4 := s.get(beam, A4NN4)
		rows = append(rows, Table3Row{
			Beam:         beam,
			XPSIHours:    xpsiHours,
			XPSIAccuracy: acc,
			A4NN1Hours:   a1.Totals.WallSeconds / 3600,
			A4NN4Hours:   a4.Totals.WallSeconds / 3600,
			A4NNAccuracy: analyzer.BestAccuracy(a1.Models),
		})
	}
	return rows, nil
}
