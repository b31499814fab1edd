package predict_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"a4nn/internal/core"
	"a4nn/internal/predict"
	"a4nn/internal/simtrain"
	"a4nn/internal/xfel"
)

// centralExp is the paper's family under another type. The engine takes
// the closed-form Jacobian only for ExpApproach itself, so this one is
// fitted through fit.Batch's central differences, as the paper's family
// was before: the numeric reference of the paired tests below.
type centralExp struct{ predict.ExpApproach }

// TestClosedFormKeepsTrackerDecisions pairs the engine's closed-form
// Jacobian with the central-difference reference over the twelve golden
// histories, unweighted and recency-weighted: every tracker must predict
// at the same epochs and converge at the same epoch (or never), with
// every prediction within 0.05 of the reference's.
func TestClosedFormKeepsTrackerDecisions(t *testing.T) {
	histories := goldenHistories(t)
	worst := 0.0
	for _, rw := range []float64{0, 2} {
		closed, numeric := predict.DefaultConfig(), predict.DefaultConfig()
		numeric.Family = centralExp{}
		closed.RecencyWeight, numeric.RecencyWeight = rw, rw
		ce, err := predict.NewEngine(closed)
		if err != nil {
			t.Fatal(err)
		}
		ne, err := predict.NewEngine(numeric)
		if err != nil {
			t.Fatal(err)
		}
		for i, history := range histories {
			got, want := predict.NewTracker(ce), predict.NewTracker(ne)
			for _, f := range history {
				a, b := got.Observe(f), want.Observe(f)
				if a != b {
					t.Fatalf("rw=%g history %d epoch %d: closed form converged %v, central differences %v", rw, i, len(got.H), a, b)
				}
				if a {
					break
				}
			}
			if fmt.Sprint(got.PredEpochs) != fmt.Sprint(want.PredEpochs) {
				t.Fatalf("rw=%g history %d: predictions at epochs %v, central differences at %v", rw, i, got.PredEpochs, want.PredEpochs)
			}
			for k := range got.P {
				d := math.Abs(got.P[k] - want.P[k])
				worst = math.Max(worst, d)
				if !(d <= 0.05) {
					t.Errorf("rw=%g history %d epoch %d: prediction %v, central differences %v", rw, i, got.PredEpochs[k], got.P[k], want.P[k])
				}
			}
		}
	}
	t.Logf("largest |Δprediction|: %.3g", worst)
}

// TestClosedFormKeepsSearchDecisions pairs whole searches: one
// paper-scale surrogate search per beam (NAS seeds 1–3, as
// TestSurrogateGoldenBits) under the closed form and under the
// central-difference reference must hold the same genomes in every
// generation and train every model the same number of epochs.
func TestClosedFormKeepsSearchDecisions(t *testing.T) {
	type model struct {
		key     string // generation, ID, genome and epochs trained
		fitness float64
	}
	var diffs []float64
	for i, beam := range xfel.AllBeams {
		tr, err := simtrain.ForBeam(beam)
		if err != nil {
			t.Fatal(err)
		}
		run := func(fam predict.CurveFamily) []model {
			cfg := core.DefaultConfig(tr)
			cfg.NAS.Seed = int64(1 + i)
			cfg.Beam = beam.String()
			cfg.Engine.Family = fam
			res, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			models := make([]model, len(res.Models))
			for j, m := range res.Models {
				r := m.Record
				models[j] = model{fmt.Sprintf("g%d %s %s epochs=%d", r.Generation, r.ID, r.Genome, r.EpochsTrained()), r.FinalFitness}
			}
			sort.SliceStable(models, func(a, b int) bool { return models[a].key < models[b].key })
			return models
		}
		got, want := run(predict.ExpApproach{}), run(centralExp{})
		if len(got) != len(want) {
			t.Fatalf("%s: %d models, central differences %d", beam, len(got), len(want))
		}
		for j := range got {
			if got[j].key != want[j].key {
				t.Fatalf("%s: model %s, central differences %s", beam, got[j].key, want[j].key)
			}
			diffs = append(diffs, math.Abs(got[j].fitness-want[j].fitness))
		}
	}
	sort.Float64s(diffs)
	t.Logf("|ΔFinalFitness| over %d models: median %.3g, max %.3g", len(diffs), diffs[len(diffs)/2], diffs[len(diffs)-1])
}
