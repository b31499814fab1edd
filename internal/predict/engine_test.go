package predict

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"a4nn/internal/fit"
	"a4nn/internal/tensor"
)

// synthCurve generates a learning curve from the paper family with
// asymptote a, rate b=e^beta, and offset c, plus Gaussian noise.
func synthCurve(a, beta, c float64, epochs int, noise float64, rng *rand.Rand) []float64 {
	ys := make([]float64, epochs)
	for e := 1; e <= epochs; e++ {
		v := a - math.Exp(beta*(c-float64(e)))
		if noise > 0 {
			v += rng.NormFloat64() * noise
		}
		ys[e-1] = v
	}
	return ys
}

// maxWarmAllocs bounds what one warm engine call may allocate. The race
// detector makes sync.Pool drop a quarter of what it is given, on
// purpose, so a call in a -race build sometimes builds a fresh scratch:
// race_test.go raises the bound there to 9 (3–6 measured over 900 runs
// of the two tests below).
var maxWarmAllocs = 3.0

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Family.Name() != "a-b^(c-x)" {
		t.Fatalf("family = %s", cfg.Family.Name())
	}
	if cfg.CMin != 3 || cfg.EPred != 25 || cfg.N != 3 || cfg.R != 0.5 {
		t.Fatalf("config deviates from Table 1: %+v", cfg)
	}
	if cfg.MinFitness != 0 || cfg.MaxFitness != 100 {
		t.Fatalf("fitness bounds deviate: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil family", func(c *Config) { c.Family = nil }},
		{"zero cmin", func(c *Config) { c.CMin = 0 }},
		{"cmin below params", func(c *Config) { c.CMin = 2 }},
		{"zero epred", func(c *Config) { c.EPred = 0 }},
		{"zero n", func(c *Config) { c.N = 0 }},
		{"negative r", func(c *Config) { c.R = -1 }},
		{"empty bounds", func(c *Config) { c.MaxFitness = c.MinFitness }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("%s: NewEngine must reject invalid config", tc.name)
		}
	}
}

func TestPredictRequiresCMin(t *testing.T) {
	cfg := DefaultConfig()
	tr := NewTracker(mustEngine(t, cfg))
	for n, fitness := range []float64{50, 60, 65} {
		tr.Observe(fitness)
		// The engine predicts from the CMin-th observation on.
		if want := max(0, n+1-cfg.CMin+1); len(tr.P) != want {
			t.Fatalf("after %d observations: %d predictions, want %d (CMin %d)", n+1, len(tr.P), want, cfg.CMin)
		}
	}
}

// predictDense fits the dense history 1..len(ys) and extrapolates it to
// EPred, as a Tracker does after each epoch.
func predictDense(e *Engine, ys []float64) (float64, bool) {
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return e.PredictAt(xs, ys, float64(e.cfg.EPred))
}

// TestPredictExtrapolatesCleanCurve: on a noiseless curve the engine's
// extrapolation at e_pred=25 must approach the true value.
func TestPredictExtrapolatesCleanCurve(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	a, beta, c := 95.0, 0.35, 2.0
	truth := a - math.Exp(beta*(c-25))
	ys := synthCurve(a, beta, c, 10, 0, nil)
	pred, ok := predictDense(e, ys)
	if !ok {
		t.Fatal("prediction failed")
	}
	if math.Abs(pred-truth) > 0.5 {
		t.Fatalf("pred = %v, want ≈%v", pred, truth)
	}
}

// TestPredictNoisyCurveConverges mirrors Figure 2: on a realistic noisy
// curve the per-epoch predictions stabilise well before full training.
func TestPredictNoisyCurveConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := mustEngine(t, DefaultConfig())
	ys := synthCurve(93, 0.4, 1.5, 25, 0.25, rng)
	tr := NewTracker(e)
	terminated := 0
	for epoch, y := range ys {
		if tr.Observe(y) {
			terminated = epoch + 1
			break
		}
	}
	if terminated == 0 {
		t.Fatal("tracker never converged on a well-behaved curve")
	}
	if terminated >= 25 {
		t.Fatalf("converged only at epoch %d; expected early termination", terminated)
	}
	got, ok := tr.FinalFitness()
	if !ok {
		t.Fatal("FinalFitness unavailable after convergence")
	}
	if math.Abs(got-93) > 2.5 {
		t.Fatalf("final fitness %v, want ≈93", got)
	}
}

func TestConvergedValidityBounds(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	// Any prediction outside [0,100] in the window blocks convergence
	// (paper §2.1.2).
	if e.Converged([]float64{101, 101, 101}) {
		t.Fatal("out-of-bounds predictions must not converge")
	}
	if e.Converged([]float64{-1, -1, -1}) {
		t.Fatal("negative predictions must not converge")
	}
	if e.Converged([]float64{90, 90.2, math.NaN()}) {
		t.Fatal("NaN prediction must not converge")
	}
	if !e.Converged([]float64{90, 90.2, 90.4}) {
		t.Fatal("in-bounds tight window must converge")
	}
	// Earlier out-of-bounds values outside the window are irrelevant.
	if !e.Converged([]float64{150, 90, 90.2, 90.4}) {
		t.Fatal("only the last N predictions matter")
	}
}

func TestConvergedWindowDispersion(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	if e.Converged([]float64{90, 90.3, 90.6}) {
		t.Fatal("window range 0.6 > r=0.5 must not converge")
	}
	if !e.Converged([]float64{90, 90.1, 90.5}) {
		t.Fatal("window range 0.5 ≤ r=0.5 must converge")
	}
	if e.Converged([]float64{90, 90.1}) {
		t.Fatal("fewer than N predictions must not converge")
	}
}

func TestTrackerLifecycle(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	tr := NewTracker(e)
	if _, ok := tr.FinalFitness(); ok {
		t.Fatal("FinalFitness before any observation must report !ok")
	}
	if len(tr.H) != 0 || tr.Converged() {
		t.Fatal("fresh tracker state wrong")
	}
	tr.Observe(50)
	if len(tr.H) != 1 {
		t.Fatalf("len(H) = %d", len(tr.H))
	}
	// Before convergence the final fitness is the last observation
	// (Algorithm 1, line 20).
	got, ok := tr.FinalFitness()
	if !ok || got != 50 {
		t.Fatalf("FinalFitness = %v, %v; want 50, true", got, ok)
	}
}

func TestTrackerStopsObservingAfterConvergence(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	tr := NewTracker(e)
	ys := synthCurve(95, 0.5, 1, 25, 0, nil)
	var et int
	for i, y := range ys {
		if tr.Observe(y) {
			et = i + 1
			break
		}
	}
	if et == 0 {
		t.Fatal("no convergence on clean curve")
	}
	h := len(tr.H)
	if tr.Observe(1234) != true {
		t.Fatal("Observe after convergence must keep reporting converged")
	}
	if len(tr.H) != h {
		t.Fatal("Observe after convergence must not extend the history")
	}
}

// TestFlatCurveNeverPredictsWildly: a pathological constant history should
// either predict the constant or fail, never diverge.
func TestFlatCurve(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	pred, ok := predictDense(e, []float64{50, 50, 50, 50, 50})
	if ok && math.Abs(pred-50) > 1 {
		t.Fatalf("flat history predicted %v, want ≈50", pred)
	}
}

// TestDecreasingCurve: fitness that degrades (failed network) should not
// produce a convergent over-100 prediction.
func TestDecreasingCurveStaysInvalidOrLow(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	tr := NewTracker(e)
	ys := []float64{60, 55, 50, 46, 43, 41, 40, 39, 38, 37}
	for _, y := range ys {
		tr.Observe(y)
	}
	if tr.Converged() {
		if p, _ := tr.FinalFitness(); p > 100 || p < 0 {
			t.Fatalf("converged on invalid fitness %v", p)
		}
	}
}

func TestPredictAtLengthMismatch(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	if _, ok := e.PredictAt([]float64{1, 2}, []float64{1}, 25); ok {
		t.Fatal("length mismatch must fail")
	}
}

func TestLastValueFamily(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Family = LastValue{}
	cfg.CMin = 1
	e := mustEngine(t, cfg)
	pred, ok := predictDense(e, []float64{10, 20, 30})
	if !ok || pred != 30 {
		t.Fatalf("LastValue predicted %v, %v; want 30, true", pred, ok)
	}
}

func TestPowerLawFamilyFits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Family = PowerLaw{}
	e := mustEngine(t, cfg)
	// Generate from the power-law family itself: F(x) = 92 − 30·x^(−1).
	var ys []float64
	for x := 1; x <= 12; x++ {
		ys = append(ys, 92-30*math.Pow(float64(x), -1))
	}
	pred, ok := predictDense(e, ys)
	if !ok {
		t.Fatal("power-law prediction failed")
	}
	want := 92 - 30*math.Pow(25, -1)
	if math.Abs(pred-want) > 1 {
		t.Fatalf("pred = %v, want ≈%v", pred, want)
	}
}

func TestFamilyMetadata(t *testing.T) {
	for _, f := range []CurveFamily{ExpApproach{}, PowerLaw{}, LastValue{}} {
		if f.Name() == "" {
			t.Error("family must have a name")
		}
		if f.NumParams() < 1 {
			t.Errorf("%s: NumParams = %d", f.Name(), f.NumParams())
		}
	}
	lo, hi := ExpApproach{}.Bounds()
	if len(lo) != 3 || len(hi) != 3 {
		t.Fatal("ExpApproach bounds must cover 3 params")
	}
}

// Property: for any monotone noiseless curve from the family, the tracker
// either converges to within a few points of the true asymptotic fitness
// or never claims convergence.
// TestEvalBatchMatchesEval holds every family's batch form, and the
// fit's exponential memo, to the one-point Eval bit for bit, over
// histories of every length up to 30: parameters drawn across each
// family's box, and every fourth draw with a rate 20× past it, so that
// some arguments leave the vector exponential's range. The memo's Eval
// sees parameters that keep and that change its (β, c) key: the current
// ones, a moved a, a moved β, a moved c, and the current ones again.
// TestExpJacobianMatchesCentral holds the memo's Jacobian to central
// differences.
func TestEvalBatchMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 30; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		var memo expMemo
		for trial := 0; trial < 20; trial++ {
			for _, fam := range []CurveFamily{ExpApproach{}, PowerLaw{}, Logistic{}, LastValue{}} {
				lo, hi := fam.Bounds()
				p := make([]float64, fam.NumParams())
				for i := range p {
					if lo == nil {
						p[i] = rng.NormFloat64() * 50
						continue
					}
					p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
				}
				if trial%4 == 0 && len(p) > 1 {
					p[1] *= 20
				}
				check := func(label string, eval func(p, xs, out []float64), p []float64) {
					out := make([]float64, n)
					eval(p, xs, out)
					for i, x := range xs {
						if got, want := out[i], fam.Eval(p, x); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s %s at %v, x=%v: %v, Eval gives %v", fam.Name(), label, p, x, got, want)
						}
					}
				}
				check("EvalBatch", fam.EvalBatch, p)
				if _, paper := fam.(ExpApproach); paper {
					memo.reset()
					for j, d := range [][3]float64{{0, 0, 0}, {1e-4, 0, 0}, {-1e-4, 0, 0}, {0, 1e-6, 0}, {0, 0, 1e-4}, {0, 0, 0}} {
						q := []float64{p[0] + d[0], p[1] + d[1], p[2] + d[2]}
						check(fmt.Sprintf("memo call %d", j), memo.Eval, q)
					}
				}
			}
		}
	}
}

// TestExpJacobianMatchesCentral holds the memo's closed-form Jacobian to
// the central differences fit.Batch takes of the family's EvalBatch (the
// Jacobian the paper's family was fitted with before), for histories of
// length 3…30 and parameters across the family's box, whatever the memo
// held before, on both paths of tensor.ExpInto. Each entry must agree to
// 1e-6 of itself plus the rounding a central difference of step h makes:
// a few ulps of the curve's terms, a and E·(1+|β(c−x)|), over h. Every
// third draw has exponents past the 700 cap at early epochs, where the β
// and c columns are 0 on both sides (and a central difference cannot see
// a beside E = e^700), and below −708 at late ones.
func TestExpJacobianMatchesCentral(t *testing.T) {
	for _, vector := range []bool{true, false} {
		t.Run(fmt.Sprintf("vector=%v", vector), func(t *testing.T) {
			defer tensor.UseExpKernel(tensor.UseExpKernel(vector))
			rng := rand.New(rand.NewSource(9))
			fam := ExpApproach{}
			central := fit.Batch(fam.EvalBatch)
			lo, hi := fam.Bounds()
			worst := 0.0
			for n := 3; n <= 30; n++ {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = float64(i + 1)
				}
				var memo expMemo
				got, want, tmp := make([]float64, 3*n), make([]float64, 3*n), make([]float64, n)
				for trial := 0; trial < 30; trial++ {
					p := make([]float64, 3)
					for i := range p {
						p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
					}
					if trial%3 == 0 {
						// β(c−x) runs from 60·14 = 840 at x = 1 down to
						// 60·(15−n), below −708 once n ≥ 27.
						p[1], p[2] = 60, 15
					}
					switch trial % 4 {
					case 0: // as in a fit: the current parameters were just evaluated
						memo.Eval(p, xs, tmp)
					case 1: // the memo holds another curve
						memo.Eval([]float64{p[0], p[1] * 1.5, p[2]}, xs, tmp)
					case 2:
						memo.reset()
					}
					memo.Jacobian(append([]float64(nil), p...), xs, 1e-6, got, tmp)
					central.Jacobian(append([]float64(nil), p...), xs, 1e-6, want, tmp)
					for j := range p {
						h := 1e-6 * math.Max(1, math.Abs(p[j]))
						for i, x := range xs {
							arg := math.Min(p[1]*(p[2]-x), 700)
							terms := math.Abs(p[0]) + math.Exp(arg)*(1+math.Abs(arg))
							g, w := got[j*n+i], want[j*n+i]
							tol := 1e-6*math.Abs(w) + 8*0x1p-52*terms/h
							if !(math.Abs(g-w) <= tol) {
								t.Fatalf("n=%d p=%v: column %d at x=%v = %v, central difference %v", n, p, j, x, g, w)
							}
							worst = math.Max(worst, math.Abs(g-w)/tol)
						}
					}
				}
			}
			t.Logf("largest difference: %.3g of its bound", worst)
		})
	}
}

// TestExpJacobianWeightedStep: one weighted Levenberg–Marquardt iteration
// on the paper family, from the engine's initial guess over noisy
// histories of length 3…25 under the recency weights (rw = 2), takes the
// same step through the memo's closed form as through central
// differences, to 1e-5 of each parameter (the normal equations amplify
// the Jacobians' small differences; the largest seen is 1.4e-6): the
// workspace scales the model's columns by √w whichever Jacobian the
// model has.
func TestExpJacobianWeightedStep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fam := ExpApproach{}
	lo, hi := fam.Bounds()
	var closed, numeric fit.Workspace
	worst := 0.0
	for n := 3; n <= 25; n++ {
		xs, weights := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
			weights[i] = tensor.Pow(xs[i]/float64(n), 2)
		}
		opts := &fit.LMOptions{MaxIterations: 1, Lower: lo, Upper: hi, Weights: weights}
		for trial := 0; trial < 20; trial++ {
			ys := synthCurve(60+39*rng.Float64(), 0.1+0.6*rng.Float64(), 4*rng.Float64(), n, 0.5*rng.Float64(), rng)
			p0 := fam.InitialGuess(xs, ys)
			var memo expMemo
			got, err := closed.Fit(&memo, xs, ys, p0, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := numeric.Fit(fit.Batch(fam.EvalBatch), xs, ys, p0, opts)
			if err != nil {
				t.Fatal(err)
			}
			for j := range p0 {
				d := math.Abs(got.Params[j]-want.Params[j]) / math.Max(1, math.Abs(want.Params[j]))
				worst = math.Max(worst, d)
				if !(d <= 1e-5) {
					t.Fatalf("n=%d trial %d from %v: closed form steps to %v, central differences to %v", n, trial, p0, got.Params, want.Params)
				}
			}
		}
	}
	t.Logf("largest difference: %.3g", worst)
}

func TestTrackerConvergenceSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := 60 + rng.Float64()*39       // asymptote in [60, 99]
		beta := 0.15 + rng.Float64()*0.6 // rate
		c := rng.Float64() * 4           // offset
		e := mustEngineQuick(DefaultConfig())
		tr := NewTracker(e)
		ys := synthCurve(a, beta, c, 25, 0.1*rng.Float64(), rng)
		for _, y := range ys {
			if tr.Observe(y) {
				break
			}
		}
		if !tr.Converged() {
			return true // not converging is always sound
		}
		truth := a - math.Exp(beta*(c-25))
		got, _ := tr.FinalFitness()
		return math.Abs(got-truth) < 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func mustEngineQuick(cfg Config) *Engine {
	e, err := NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// BenchmarkEngineInteraction measures one Algorithm-1 interaction with the
// prediction engine (fit + extrapolate + convergence check); the paper
// reports an average of 28.07 ms per interaction on their platform.
func BenchmarkEngineInteraction(b *testing.B) {
	e := mustEngineQuick(DefaultConfig())
	ys := synthCurve(93, 0.4, 1.5, 12, 0.25, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok := predictDense(e, ys)
		if ok {
			e.Converged([]float64{p, p, p})
		}
	}
}

// neverConverging is the paper's configuration with a window no history
// fills, so a tracker runs the engine at every epoch it is shown.
func neverConverging() Config {
	cfg := DefaultConfig()
	cfg.N = 1000
	return cfg
}

// BenchmarkTrackerObserve replays one 25-epoch history through a fresh
// Tracker: the 23 engine interactions of a model that trains to the end,
// each on fit buffers from the engine's pool.
func BenchmarkTrackerObserve(b *testing.B) {
	e := mustEngineQuick(neverConverging())
	ys := synthCurve(93, 0.4, 1.5, 25, 0.25, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewTracker(e)
		for _, y := range ys {
			tr.Observe(y)
		}
		if len(tr.P) != 23 {
			b.Fatalf("%d predictions, want 23", len(tr.P))
		}
	}
}

// TestTrackerObserveAllocs bounds what one engine interaction allocates
// once the engine's pool is warm: the family's InitialGuess — its result,
// its linearised targets and PolyFit's one buffer (PolyFit stores no
// design matrix). Nothing else: the fit, its weights and its exponentials
// run on pooled scratch, the bounds were fetched by NewEngine, and the
// start vector lives on the stack.
func TestTrackerObserveAllocs(t *testing.T) {
	e := mustEngine(t, neverConverging())
	ys := synthCurve(93, 0.4, 1.5, 25, 0.25, rand.New(rand.NewSource(1)))
	tr := NewTracker(e)
	next := 0
	observe := func() {
		tr.Observe(ys[next])
		next++
	}
	for next < 12 {
		observe()
	}
	allocs := testing.AllocsPerRun(12, observe) // epochs 13–25 (one warm-up call)
	if allocs > maxWarmAllocs {
		t.Errorf("a steady-state Tracker.Observe made %v allocations, want ≤ %v", allocs, maxWarmAllocs)
	}
	t.Logf("%v allocations per Observe", allocs)
}

// TestPredictAtAllocs: a PredictAt call on a warm engine allocates what
// an Observe does, recency weights included — the stateless entry point
// fits on the same pooled scratch as a Tracker.
func TestPredictAtAllocs(t *testing.T) {
	ys := synthCurve(93, 0.4, 1.5, 12, 0.25, rand.New(rand.NewSource(1)))
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, rw := range []float64{0, 2} {
		cfg := DefaultConfig()
		cfg.RecencyWeight = rw
		e := mustEngine(t, cfg)
		predict := func() {
			if _, ok := e.PredictAt(xs, ys, 25); !ok {
				t.Fatal("prediction failed")
			}
		}
		predict()
		if allocs := testing.AllocsPerRun(20, predict); allocs > maxWarmAllocs {
			t.Errorf("rw=%g: a warm PredictAt made %v allocations, want ≤ %v", rw, allocs, maxWarmAllocs)
		}
	}
}

// TestFitScratchReuse runs one scratch through engines of every fitted
// family, weighted and not, over histories long and short and over two
// epoch grids of one length: each prediction must have the bits of one
// made on a fresh scratch, so nothing read is left over from an earlier
// call — the pool hands any scratch to any engine.
func TestFitScratchReuse(t *testing.T) {
	ys := synthCurve(93, 0.4, 1.5, 25, 0.25, rand.New(rand.NewSource(4)))
	var engines []*Engine
	for _, fam := range []CurveFamily{ExpApproach{}, PowerLaw{}, Logistic{}} {
		for _, rw := range []float64{0, 2} {
			cfg := DefaultConfig()
			cfg.Family, cfg.RecencyWeight = fam, rw
			engines = append(engines, mustEngine(t, cfg))
		}
	}
	var shared fitScratch
	for _, n := range []int{25, 3, 17, 9, 9, 25, 4} {
		for _, step := range []float64{1, 2} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = step * float64(i+1)
			}
			// Leave the memo holding the first start's exponentials over
			// the other grid: a fit that skipped the reset would use them.
			other := make([]float64, n)
			for i := range other {
				other[i] = (3 - step) * float64(i+1)
			}
			shared.exps.Eval(ExpApproach{}.InitialGuess(xs, ys[:n]), other, make([]float64, n))
			for k, e := range engines {
				want, wantOK := e.predictWith(new(fitScratch), xs, ys[:n], 25)
				got, ok := e.predictWith(&shared, xs, ys[:n], 25)
				if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("engine %d (%s rw=%g), n=%d step=%g: reused scratch %v, %v; fresh %v, %v",
						k, e.cfg.Family.Name(), e.cfg.RecencyWeight, n, step, got, ok, want, wantOK)
				}
			}
		}
	}
}

func TestLogisticFamilyFits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Family = Logistic{}
	e := mustEngine(t, cfg)
	// Generate from the logistic family: a=95, k=0.6, m=6.
	truth := []float64{95, 0.6, 6}
	var ys []float64
	for x := 1; x <= 14; x++ {
		ys = append(ys, Logistic{}.Eval(truth, float64(x)))
	}
	pred, ok := predictDense(e, ys)
	if !ok {
		t.Fatal("logistic prediction failed")
	}
	want := Logistic{}.Eval(truth, 25)
	if math.Abs(pred-want) > 1.5 {
		t.Fatalf("logistic pred %v, want ≈%v", pred, want)
	}
	if (Logistic{}).Name() == "" || (Logistic{}).NumParams() != 3 {
		t.Fatal("logistic metadata")
	}
	lo, hi := Logistic{}.Bounds()
	if len(lo) != 3 || len(hi) != 3 {
		t.Fatal("logistic bounds")
	}
}

func TestRecencyWeightValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecencyWeight = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative recency weight must fail")
	}
}

// TestRecencyWeightTracksLateEpochs: on a curve with an early outlier
// regime, recency weighting pulls the extrapolation toward the late
// behaviour.
func TestRecencyWeightTracksLateEpochs(t *testing.T) {
	// First 4 epochs sit far below the trend the last 8 establish.
	ys := []float64{20, 22, 24, 26, 80, 84, 87, 89, 90.5, 91.5, 92.2, 92.6}
	base := mustEngine(t, DefaultConfig())
	weightedCfg := DefaultConfig()
	weightedCfg.RecencyWeight = 3
	weighted := mustEngine(t, weightedCfg)
	pb, okB := predictDense(base, ys)
	pw, okW := predictDense(weighted, ys)
	if !okB || !okW {
		t.Fatalf("predictions failed: %v %v", okB, okW)
	}
	// The weighted prediction must be at least as close to the late
	// asymptote (~93-94) as the unweighted one.
	target := 93.5
	if math.Abs(pw-target) > math.Abs(pb-target)+0.5 {
		t.Fatalf("weighted pred %v further from %v than unweighted %v", pw, target, pb)
	}
}
