// Package predict implements the A4NN parametric fitness-prediction
// engine (paper §2.1): it fits a parametric function to the partial
// learning curve of a neural network during training, extrapolates the
// fitness the network is expected to attain at a future epoch e_pred, and
// decides — via the prediction analyzer — when those extrapolations have
// converged to a stable value so that training can be terminated early.
//
// The engine is deliberately decoupled from any particular NAS: it
// consumes only (epoch, fitness) histories and produces predictions, which
// is what makes the A4NN workflow composable (paper §2.2).
package predict

import (
	"math"

	"a4nn/internal/fit"
)

// CurveFamily describes a parametric learning-curve family F(params, x)
// together with the initialisation and box constraints that make the
// nonlinear fit well-posed. x is the training epoch, F the fitness
// (validation accuracy, in percent, for the paper's use case).
type CurveFamily interface {
	// Name identifies the family, e.g. "a-b^(c-x)".
	Name() string
	// NumParams returns the dimensionality of the parameter vector.
	NumParams() int
	// Eval evaluates the curve at epoch x.
	Eval(params []float64, x float64) float64
	// EvalBatch evaluates the curve at every epoch of xs into out, exactly
	// as Eval would one at a time. The fit evaluates whole histories, and
	// this form costs it one dynamic call per history, not per point.
	EvalBatch(params, xs, out []float64)
	// InitialGuess seeds the nonlinear fit from the observed partial
	// learning curve (xs = epochs, ys = fitness values).
	InitialGuess(xs, ys []float64) []float64
	// Bounds returns box constraints (lower, upper) for the fit; either
	// may be nil for an unconstrained family.
	Bounds() (lower, upper []float64)
}

// ExpApproach is the paper's learning-curve family F(x) = a − b^(c−x)
// (Table 1): a concave, increasing curve that rises quickly at first and
// saturates at the asymptote a. Internally the curve is parameterised as
// (a, β, c) with b = e^β so that b stays positive during the fit.
type ExpApproach struct{}

// Name implements CurveFamily.
func (ExpApproach) Name() string { return "a-b^(c-x)" }

// NumParams implements CurveFamily.
func (ExpApproach) NumParams() int { return 3 }

// expApproach is F(x) = a − e^{β(c−x)}.
func expApproach(a, beta, c, x float64) float64 {
	// Capped to avoid overflow to +Inf; the fit rejects such steps anyway.
	return a - math.Exp(min(beta*(c-x), 700))
}

// Eval implements CurveFamily: F(x) = a − e^{β(c−x)}.
func (ExpApproach) Eval(p []float64, x float64) float64 { return expApproach(p[0], p[1], p[2], x) }

// EvalBatch implements CurveFamily.
func (ExpApproach) EvalBatch(p, xs, out []float64) {
	a, beta, c := p[0], p[1], p[2]
	for i, x := range xs {
		out[i] = expApproach(a, beta, c, x)
	}
}

// InitialGuess implements CurveFamily. It seeds a just above the best
// observed fitness and linearises log(a−y) = β(c−x), so that an ordinary
// least-squares line through (x, log(a−y)) yields β and c. This
// initialisation keeps Levenberg–Marquardt out of the degenerate
// constant-fit basin the family has when β(c−x) underflows.
func (f ExpApproach) InitialGuess(xs, ys []float64) []float64 {
	a0 := ys[0]
	for _, y := range ys {
		if y > a0 {
			a0 = y
		}
	}
	a0 += 1.0
	zs := make([]float64, len(ys))
	for i, y := range ys {
		d := a0 - y
		if d < 1e-6 {
			d = 1e-6
		}
		zs[i] = math.Log(d)
	}
	c, err := fit.PolyFit(xs, zs, 1)
	beta, cc := 0.3, xs[0]
	if err == nil && c[1] < 0 {
		beta = -c[1]
		cc = c[0] / beta
	}
	lo, hi := f.Bounds()
	g := []float64{a0, beta, cc}
	for i := range g {
		if g[i] < lo[i] {
			g[i] = lo[i]
		}
		if g[i] > hi[i] {
			g[i] = hi[i]
		}
	}
	return g
}

// Bounds implements CurveFamily. The asymptote is allowed slightly outside
// [0,100] so the analyzer's validity check (not the fit) is what rejects
// implausible extrapolations, exactly as in the paper.
func (ExpApproach) Bounds() (lower, upper []float64) {
	return []float64{-50, 1e-4, -100}, []float64{200, 5, 100}
}

// PowerLaw is an alternative concave family F(x) = a − b·x^(−c) used by the
// learning-curve-extrapolation literature; it is included for the ablation
// comparing curve families (DESIGN.md §4).
type PowerLaw struct{}

// Name implements CurveFamily.
func (PowerLaw) Name() string { return "a-b*x^(-c)" }

// NumParams implements CurveFamily.
func (PowerLaw) NumParams() int { return 3 }

// powerLaw is F(x) = a − b·x^(−c), defined for x > 0.
func powerLaw(a, b, c, x float64) float64 {
	if x <= 0 {
		x = 1e-9
	}
	return a - b*math.Pow(x, -c)
}

// Eval implements CurveFamily: F(x) = a − b·x^(−c), defined for x > 0.
func (PowerLaw) Eval(p []float64, x float64) float64 { return powerLaw(p[0], p[1], p[2], x) }

// EvalBatch implements CurveFamily.
func (PowerLaw) EvalBatch(p, xs, out []float64) {
	a, b, c := p[0], p[1], p[2]
	for i, x := range xs {
		out[i] = powerLaw(a, b, c, x)
	}
}

// InitialGuess implements CurveFamily: a just above the best observation,
// b from the first observation, c = 1.
func (f PowerLaw) InitialGuess(xs, ys []float64) []float64 {
	a0 := ys[0]
	for _, y := range ys {
		if y > a0 {
			a0 = y
		}
	}
	a0 += 1.0
	b0 := math.Max(a0-ys[0], 1e-3) * math.Max(xs[0], 1)
	return []float64{a0, b0, 1}
}

// Bounds implements CurveFamily.
func (PowerLaw) Bounds() (lower, upper []float64) {
	return []float64{-50, 1e-6, 0.05}, []float64{200, 1e4, 8}
}

// LastValue is a trivial "family" that predicts the most recent observed
// fitness regardless of epoch. It needs no fitting and serves as the
// ablation baseline for the parametric families.
type LastValue struct{}

// Name implements CurveFamily.
func (LastValue) Name() string { return "last-value" }

// NumParams implements CurveFamily.
func (LastValue) NumParams() int { return 1 }

// Eval implements CurveFamily: the single parameter is the prediction.
func (LastValue) Eval(p []float64, x float64) float64 { return p[0] }

// EvalBatch implements CurveFamily.
func (f LastValue) EvalBatch(p, xs, out []float64) {
	for i, x := range xs {
		out[i] = f.Eval(p, x)
	}
}

// InitialGuess implements CurveFamily.
func (LastValue) InitialGuess(xs, ys []float64) []float64 {
	return []float64{ys[len(ys)-1]}
}

// Bounds implements CurveFamily.
func (LastValue) Bounds() (lower, upper []float64) { return nil, nil }
