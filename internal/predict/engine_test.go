package predict

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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
	e := mustEngine(t, DefaultConfig())
	if _, ok := e.Predict([]float64{50}); ok {
		t.Fatal("prediction with fewer than CMin observations must fail")
	}
	if _, ok := e.Predict([]float64{50, 60}); ok {
		t.Fatal("prediction with fewer than CMin observations must fail")
	}
	if _, ok := e.Predict([]float64{50, 60, 65}); !ok {
		t.Fatal("prediction with CMin observations should succeed")
	}
}

// TestPredictExtrapolatesCleanCurve: on a noiseless curve the engine's
// extrapolation at e_pred=25 must approach the true value.
func TestPredictExtrapolatesCleanCurve(t *testing.T) {
	e := mustEngine(t, DefaultConfig())
	a, beta, c := 95.0, 0.35, 2.0
	truth := a - math.Exp(beta*(c-25))
	ys := synthCurve(a, beta, c, 10, 0, nil)
	pred, ok := e.Predict(ys)
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
	if tr.Epoch() != 0 || tr.Converged() {
		t.Fatal("fresh tracker state wrong")
	}
	tr.Observe(50)
	if tr.Epoch() != 1 {
		t.Fatalf("Epoch = %d", tr.Epoch())
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
	pred, ok := e.Predict([]float64{50, 50, 50, 50, 50})
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
	pred, ok := e.Predict([]float64{10, 20, 30})
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
	pred, ok := e.Predict(ys)
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
		p, ok := e.Predict(ys)
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
// on the buffers one tracker keeps across them.
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
// once a tracker's buffers are warm: the initial guess and its
// linearisation (PolyFit's design matrix grows with the history), the
// start vector, the kept parameters and the fit options — not the fit,
// which runs on the tracker's workspace.
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
	if allocs > 36 {
		t.Errorf("a steady-state Tracker.Observe made %v allocations, want ≤ 36", allocs)
	}
	t.Logf("%v allocations per Observe", allocs)
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
	pred, ok := e.Predict(ys)
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
	pb, okB := base.Predict(ys)
	pw, okW := weighted.Predict(ys)
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
