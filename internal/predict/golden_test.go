package predict_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"a4nn/internal/fit"
	"a4nn/internal/genome"
	"a4nn/internal/predict"
	"a4nn/internal/simtrain"
	"a4nn/internal/xfel"
)

// goldenHistories returns twelve fixed 25-epoch fitness histories: four
// surrogate learning curves per beam, from fixed genomes and seeds. The
// last two of each beam were picked because the paper's family fits them
// poorly early on (see multiStarts).
func goldenHistories(t *testing.T) [][]float64 {
	t.Helper()
	var out [][]float64
	for b, beam := range xfel.AllBeams {
		tr, err := simtrain.ForBeam(beam)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range [][]int{{0, 1, 5, 12}, {0, 1, 19, 41}, {0, 1, 19, 57}}[b] {
			seed := int64(100*b + k)
			g, err := genome.NewRandom(rand.New(rand.NewSource(seed)), 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			m, err := tr.NewModel(g, seed)
			if err != nil {
				t.Fatal(err)
			}
			h := make([]float64, 25)
			for e := range h {
				em, err := m.TrainEpoch()
				if err != nil {
					t.Fatal(err)
				}
				h[e] = em.ValAccuracy
			}
			out = append(out, h)
		}
	}
	return out
}

// multiStarts counts the engine interactions of history, up to epoch
// last, whose first fit fails the 95 %-of-variance gate and so take the
// three-start path, by repeating the gate through fit's public API.
func multiStarts(fam predict.CurveFamily, history []float64, last int) int {
	lo, hi := fam.Bounds()
	n := 0
	for e := fam.NumParams(); e <= last; e++ {
		xs, ys := make([]float64, e), history[:e]
		mean := 0.0
		for i := range xs {
			xs[i] = float64(i + 1)
			mean += ys[i]
		}
		mean /= float64(e)
		variance := 0.0
		for _, y := range ys {
			variance += (y - mean) * (y - mean)
		}
		res, err := fit.CurveFit(fam.Eval, xs, ys, fam.InitialGuess(xs, ys),
			&fit.LMOptions{MaxIterations: 100, Lower: lo, Upper: hi})
		if err != nil || res.Residual > 0.05*variance {
			n++
		}
	}
	return n
}

// TestTrackerGoldenBits pins every bit the engine hands the search: for
// each family, unweighted and recency-weighted, the predictions, the
// epochs that produced them and the convergence epoch of twelve fixed
// histories must be what they were before the fit moved onto a reusable
// workspace, and a tracker restored mid-history (the -resume path) must
// continue to the same bits. Recorded on amd64; other ports fuse
// multiply-adds.
func TestTrackerGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits recorded on amd64")
	}
	histories := goldenHistories(t)
	want := map[string]uint64{
		"a-b^(c-x) rw=0":       0x08dc2ca3819298d7,
		"a-b^(c-x) rw=2":       0x0ee4d032cba9b5af,
		"a-b*x^(-c) rw=0":      0x4e3e1f756fb69b48,
		"a-b*x^(-c) rw=2":      0xd830e2e9ac1f2995,
		"a/(1+e^-k(x-m)) rw=0": 0x92dc08ab974468d9,
		"a/(1+e^-k(x-m)) rw=2": 0x7d26b21d67e7220f,
		"last-value rw=0":      0x6c760cf8c349b2d2,
		"last-value rw=2":      0x6c760cf8c349b2d2,
	}
	for _, fam := range []predict.CurveFamily{predict.ExpApproach{}, predict.PowerLaw{}, predict.Logistic{}, predict.LastValue{}} {
		for _, rw := range []float64{0, 2} {
			cfg := predict.DefaultConfig()
			cfg.Family, cfg.RecencyWeight = fam, rw
			engine, err := predict.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s rw=%g", fam.Name(), rw)
			paper := key == "a-b^(c-x) rw=0"
			h := fnv.New64a()
			multi, never := 0, 0
			for i, history := range histories {
				tr := predict.NewTracker(engine)
				for _, f := range history {
					tr.Observe(f)
				}
				conv := 0
				if tr.Converged() {
					conv = tr.Epoch()
				} else {
					never++
				}
				if paper && multiStarts(fam, history, tr.Epoch()) > 0 {
					multi++
				}
				for j, p := range tr.P {
					fmt.Fprintf(h, "%016x@%d ", math.Float64bits(p), tr.PredEpochs[j])
				}
				fmt.Fprintf(h, "conv=%d\n", conv)

				for _, cut := range []int{4, 11} {
					head := predict.NewTracker(engine)
					for _, f := range history[:cut] {
						head.Observe(f)
					}
					resumed := predict.NewTracker(engine)
					resumed.Restore(head.H, head.P, head.PredEpochs, head.Converged())
					for _, f := range history[cut:] {
						resumed.Observe(f)
					}
					if !sameBits(resumed.P, tr.P) || fmt.Sprint(resumed.PredEpochs) != fmt.Sprint(tr.PredEpochs) ||
						resumed.Epoch() != tr.Epoch() || resumed.Converged() != tr.Converged() {
						t.Errorf("%s rw=%g history %d: restored at epoch %d diverged: P %v epochs %v, want %v %v",
							fam.Name(), rw, i, cut, resumed.P, resumed.PredEpochs, tr.P, tr.PredEpochs)
					}
				}
			}
			if got := h.Sum64(); got != want[key] {
				t.Errorf("%s: fingerprint %#x, want %#x", key, got, want[key])
			}
			// The paper's configuration must exercise every path of
			// PredictAt: the three-start fallback and a tracker that never
			// converges.
			if paper && (multi < 2 || never < 1) {
				t.Errorf("%s: %d histories take the three-start path, %d never converge; want ≥ 2 and ≥ 1", key, multi, never)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
