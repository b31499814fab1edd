package predict

import (
	"math"

	"a4nn/internal/fit"
	"a4nn/internal/tensor"
)

// Logistic is the sigmoid family F(x) = a / (1 + e^{−k(x−m)}): an
// S-shaped learning curve with a slow start, used by the
// learning-curve-extrapolation literature for networks that need several
// epochs before the loss starts moving. Parameters are (a, k, m).
type Logistic struct{}

// Name implements CurveFamily.
func (Logistic) Name() string { return "a/(1+e^-k(x-m))" }

// NumParams implements CurveFamily.
func (Logistic) NumParams() int { return 3 }

// logistic is F(x) = a / (1 + e^{−k(x−m)}).
func logistic(a, k, m, x float64) float64 {
	return a / (1 + tensor.Exp(min(-k*(x-m), 700)))
}

// Eval implements CurveFamily.
func (Logistic) Eval(p []float64, x float64) float64 { return logistic(p[0], p[1], p[2], x) }

// EvalBatch implements CurveFamily.
func (Logistic) EvalBatch(p, xs, out []float64) {
	a, k, m := p[0], p[1], p[2]
	out = out[:len(xs)]
	for i, x := range xs {
		out[i] = min(-k*(x-m), 700)
	}
	tensor.ExpInto(out)
	for i, e := range out {
		out[i] = a / (1 + e)
	}
}

// InitialGuess implements CurveFamily: a slightly above the best
// observation; (k, m) from linearising the logit of y/a.
func (f Logistic) InitialGuess(xs, ys []float64) []float64 {
	a0 := ys[0]
	for _, y := range ys {
		if y > a0 {
			a0 = y
		}
	}
	a0 += 1.0
	zs := make([]float64, len(ys))
	for i, y := range ys {
		r := y / a0
		if r < 1e-6 {
			r = 1e-6
		}
		if r > 1-1e-6 {
			r = 1 - 1e-6
		}
		zs[i] = math.Log(r / (1 - r))
	}
	c, err := fit.PolyFit(xs, zs, 1)
	k, m := 0.4, xs[len(xs)/2]
	if err == nil && c[1] > 0 {
		k = c[1]
		m = -c[0] / k
	}
	lo, hi := f.Bounds()
	g := []float64{a0, k, m}
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

// Bounds implements CurveFamily.
func (Logistic) Bounds() (lower, upper []float64) {
	return []float64{1, 1e-3, -100}, []float64{200, 5, 100}
}
