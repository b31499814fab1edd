package predict

import (
	"errors"
	"fmt"
	"math"

	"a4nn/internal/fit"
	"a4nn/internal/obs"
)

// Config mirrors Table 1 of the paper: the prediction engine's
// user-supplied settings.
type Config struct {
	// Family is the parametric function F used to model fitness curves.
	// The paper uses F(x) = a − b^(c−x) (ExpApproach).
	Family CurveFamily
	// CMin is the minimum number of fitness observations required before
	// the engine makes its first prediction (paper: 3).
	CMin int
	// EPred is the epoch for which final fitness is predicted (paper: 25,
	// the NAS's full training length).
	EPred int
	// N is the number of most recent predictions that must agree for the
	// analyzer to declare convergence (paper: 3).
	N int
	// R is the dispersion tolerated among those N predictions (paper:
	// 0.5). Dispersion is measured as the range max−min of the window,
	// the strictest of the common readings of the paper's "variance of
	// prediction to tolerate".
	R float64
	// MinFitness and MaxFitness bound valid fitness values; predictions
	// outside (MinFitness, MaxFitness) are invalid and block convergence.
	// The paper uses validation accuracy, so [0, 100].
	MinFitness, MaxFitness float64
	// RecencyWeight, when positive, weights observation i (1-based epoch
	// e of n) by (e/n)^RecencyWeight in the fit, so late epochs dominate
	// the extrapolation. 0 (the paper's implicit setting) weights all
	// epochs equally. Exposed for the curve-fitting ablations.
	RecencyWeight float64
}

// DefaultConfig returns the exact configuration of Table 1: F(x)=a−b^(c−x),
// CMin=3, e_pred=25, N=3, r=0.5, fitness bounds [0,100].
func DefaultConfig() Config {
	return Config{
		Family:     ExpApproach{},
		CMin:       3,
		EPred:      25,
		N:          3,
		R:          0.5,
		MinFitness: 0,
		MaxFitness: 100,
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	if c.Family == nil {
		return errors.New("predict: Config.Family must be set")
	}
	if c.CMin < 1 {
		return fmt.Errorf("predict: CMin must be ≥ 1, got %d", c.CMin)
	}
	if c.CMin < c.Family.NumParams() {
		return fmt.Errorf("predict: CMin=%d is fewer observations than the %d parameters of family %s",
			c.CMin, c.Family.NumParams(), c.Family.Name())
	}
	if c.EPred < 1 {
		return fmt.Errorf("predict: EPred must be ≥ 1, got %d", c.EPred)
	}
	if c.N < 1 {
		return fmt.Errorf("predict: N must be ≥ 1, got %d", c.N)
	}
	if c.R < 0 {
		return fmt.Errorf("predict: R must be ≥ 0, got %v", c.R)
	}
	if c.MaxFitness <= c.MinFitness {
		return fmt.Errorf("predict: fitness bounds [%v,%v] are empty", c.MinFitness, c.MaxFitness)
	}
	if c.RecencyWeight < 0 {
		return fmt.Errorf("predict: RecencyWeight must be ≥ 0, got %v", c.RecencyWeight)
	}
	return nil
}

// Engine is the self-contained, externally controllable parametric
// prediction engine (paper §2.1). It is stateless across networks: per-NN
// state (fitness history H and prediction history P) lives in Tracker or
// with the caller, matching Algorithm 1 where H and P are owned by the
// training loop.
type Engine struct {
	cfg     Config
	metrics Metrics
}

// Metrics holds the engine's nil-safe instrument handles; the zero
// value disables instrumentation. Handles are updated atomically, so
// one Metrics set serves every goroutine sharing the engine.
type Metrics struct {
	// Predictions counts successful fits; FitFailures counts fit
	// attempts that produced no usable prediction.
	Predictions *obs.Counter
	FitFailures *obs.Counter
	// Convergences counts networks whose prediction window converged
	// (one per Tracker, at the convergence transition).
	Convergences *obs.Counter
	// Events, when non-nil, receives a predict_converge event at each
	// Tracker's convergence transition, carrying the tracker's Label and
	// the converged prediction.
	Events *obs.Journal
}

// NewEngine validates cfg and returns an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// SetMetrics installs instrument handles. Call before the engine is
// shared across training goroutines.
func (e *Engine) SetMetrics(m Metrics) { e.metrics = m }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Predict implements the Parametric Modeling step (§2.1.1): given the
// fitness history — history[i] is the fitness observed after epoch i+1 —
// it fits the configured family and extrapolates the fitness at EPred.
// ok is false while len(history) < CMin or when the fit fails; Algorithm 1
// then simply continues training.
func (e *Engine) Predict(history []float64) (pred float64, ok bool) {
	if len(history) < e.cfg.CMin {
		return 0, false
	}
	xs := make([]float64, len(history))
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return e.PredictAt(xs, history, float64(e.cfg.EPred))
}

// PredictAt fits the family to arbitrary (epoch, fitness) pairs and
// evaluates the fitted curve at epoch x. It is the engine's low-level
// entry point; Predict wraps it for the dense 1..e histories produced by
// Algorithm 1. Both are stateless and fit on a throw-away workspace; a
// Tracker, which refits one growing history, keeps its own.
func (e *Engine) PredictAt(xs, ys []float64, x float64) (pred float64, ok bool) {
	return e.predictAt(new(fit.Workspace), xs, ys, x)
}

// predictAt is PredictAt fitting on the caller's workspace.
func (e *Engine) predictAt(w *fit.Workspace, xs, ys []float64, x float64) (pred float64, ok bool) {
	fam := e.cfg.Family
	if len(xs) != len(ys) || len(xs) < fam.NumParams() {
		return 0, false
	}
	if fam.NumParams() == 1 && fam.Name() == (LastValue{}).Name() {
		// Trivial family: no fit required.
		e.metrics.Predictions.Inc()
		return fam.Eval(fam.InitialGuess(xs, ys), x), true
	}
	lo, hi := fam.Bounds()
	var weights []float64
	if e.cfg.RecencyWeight > 0 {
		weights = make([]float64, len(xs))
		n := float64(len(xs))
		for i := range weights {
			weights[i] = math.Pow(float64(i+1)/n, e.cfg.RecencyWeight)
		}
	}
	opts := &fit.LMOptions{MaxIterations: 100, Lower: lo, Upper: hi, Weights: weights}

	// Multi-start: begin from the linearised initial guess; only when
	// that fit explains the data poorly (a suspected local minimum), try
	// deterministic perturbations of the rate-like parameter and keep the
	// lowest-residual fit. The gate keeps the common case at one fit per
	// engine interaction.
	guess := fam.InitialGuess(xs, ys)
	best := math.Inf(1)
	var bestParams []float64
	variance := 0.0
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	for _, y := range ys {
		d := y - mean
		variance += d * d
	}
	for si, scale := range []float64{1, 0.5, 2} {
		p0 := append([]float64(nil), guess...)
		if scale != 1 && len(p0) > 1 {
			p0[1] *= scale // perturb the rate-like parameter
		}
		res, err := w.Fit(fam.EvalBatch, xs, ys, p0, opts)
		if err == nil && res.Residual < best {
			best = res.Residual
			// res.Params is the workspace's; the next start overwrites it.
			bestParams = append(bestParams[:0], res.Params...)
		}
		// First fit good enough (≥95% of variance explained): accept.
		if si == 0 && bestParams != nil && best <= 0.05*variance {
			break
		}
	}
	if bestParams == nil {
		e.metrics.FitFailures.Inc()
		return 0, false
	}
	v := fam.Eval(bestParams, x)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.metrics.FitFailures.Inc()
		return 0, false
	}
	e.metrics.Predictions.Inc()
	return v, true
}

// Converged implements the Prediction Analyzer (§2.1.2): it reports
// whether the most recent N predictions are all valid fitness values
// (strictly within [MinFitness, MaxFitness]) and mutually within R of one
// another. Fewer than N predictions never converge.
func (e *Engine) Converged(predictions []float64) bool {
	n := e.cfg.N
	if len(predictions) < n {
		return false
	}
	window := predictions[len(predictions)-n:]
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range window {
		if math.IsNaN(p) || p < e.cfg.MinFitness || p > e.cfg.MaxFitness {
			return false
		}
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	return hi-lo <= e.cfg.R
}

// Tracker carries the per-network state of Algorithm 1: the fitness
// history H, the prediction history P, and whether the analyzer has
// declared convergence. One Tracker is created per NN being trained.
type Tracker struct {
	engine *Engine
	// Label identifies the network in emitted events (typically its
	// lineage record ID); optional.
	Label string
	// Gen is the network's NAS generation, carried into events; optional.
	Gen int
	// H is the fitness history: H[i] is the fitness after epoch i+1.
	H []float64
	// P is the prediction history: every successful prediction, in order.
	P []float64
	// PredEpochs records the epoch (1-based) at which each entry of P was
	// produced, for lineage records and Figure-2-style plots.
	PredEpochs []int
	converged  bool

	// xs is the epoch ramp 1..len(H) the fits run over and ws their
	// buffers; both grow with the history and are reused by every Observe.
	xs []float64
	ws fit.Workspace
}

// NewTracker returns a Tracker bound to the engine.
func NewTracker(e *Engine) *Tracker { return &Tracker{engine: e} }

// Observe appends the fitness measured after one more training epoch and
// runs one iteration of the prediction engine (lines 5–9 of Algorithm 1).
// It returns whether the predictions have now converged; once true, the
// training loop should terminate and use FinalFitness.
func (t *Tracker) Observe(fitness float64) (converged bool) {
	if t.converged {
		return true
	}
	t.H = append(t.H, fitness)
	for len(t.xs) < len(t.H) { // one step per Observe; the whole ramp after Restore
		t.xs = append(t.xs, float64(len(t.xs)+1))
	}
	cfg := &t.engine.cfg
	if len(t.H) >= cfg.CMin {
		if p, ok := t.engine.predictAt(&t.ws, t.xs[:len(t.H)], t.H, float64(cfg.EPred)); ok {
			t.P = append(t.P, p)
			t.PredEpochs = append(t.PredEpochs, len(t.H))
		}
	}
	t.converged = t.engine.Converged(t.P)
	if t.converged {
		t.engine.metrics.Convergences.Inc()
		// Actual carries the fitness observed at the convergence epoch, so
		// calibration monitors can track |predicted − actual| drift live.
		t.engine.metrics.Events.Emit(obs.Event{
			Type:      obs.EventPredictConverge,
			Model:     t.Label,
			Gen:       t.Gen,
			Epoch:     len(t.H),
			Predicted: t.P[len(t.P)-1],
			Actual:    fitness,
		})
	}
	return t.converged
}

// Restore rehydrates the tracker from persisted state (a model-level
// checkpoint): the fitness history H, the prediction history P with the
// epochs that produced it, and whether the analyzer had already declared
// convergence. Subsequent Observe calls continue exactly where the
// persisted run stopped — no convergence event is re-emitted for an
// already-converged tracker.
func (t *Tracker) Restore(h, p []float64, predEpochs []int, converged bool) {
	t.H = append(t.H[:0], h...)
	t.P = append(t.P[:0], p...)
	t.PredEpochs = append(t.PredEpochs[:0], predEpochs...)
	t.converged = converged
}

// Converged reports whether the analyzer has declared convergence.
func (t *Tracker) Converged() bool { return t.converged }

// Epoch returns the number of epochs observed so far.
func (t *Tracker) Epoch() int { return len(t.H) }

// FinalFitness implements lines 17–21 of Algorithm 1: the last prediction
// when converged, otherwise the last observed fitness. ok is false when
// nothing has been observed yet.
func (t *Tracker) FinalFitness() (fitness float64, ok bool) {
	if t.converged && len(t.P) > 0 {
		return t.P[len(t.P)-1], true
	}
	if len(t.H) > 0 {
		return t.H[len(t.H)-1], true
	}
	return 0, false
}
