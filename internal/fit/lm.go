package fit

import (
	"errors"
	"fmt"
	"math"
)

// Func is a parametric model y = f(params, x) fitted by Levenberg–Marquardt.
type Func func(params []float64, x float64) float64

// LMOptions configures Levenberg–Marquardt.
type LMOptions struct {
	// MaxIterations bounds the number of LM steps (default 200).
	MaxIterations int
	// Tolerance is the relative reduction in the sum of squared residuals
	// below which the fit is declared converged (default 1e-10).
	Tolerance float64
	// InitialLambda is the starting damping factor (default 1e-3).
	InitialLambda float64
	// Epsilon is the step used for the central-difference Jacobian
	// (default 1e-6, scaled by max(1,|param|)).
	Epsilon float64
	// Weights, when non-nil, must have one entry per observation; the
	// fit minimises Σ wᵢ·rᵢ². The prediction engine uses recency weights
	// so late epochs dominate the extrapolation.
	Weights []float64
	// Lower and Upper, when non-nil, impose box constraints: every trial
	// parameter vector is projected into [Lower[i], Upper[i]]. They must
	// have the same length as the parameter vector. Box constraints keep
	// exponential-family models out of degenerate flat regions where the
	// numeric Jacobian vanishes.
	Lower, Upper []float64
}

func (o *LMOptions) withDefaults() LMOptions {
	r := LMOptions{MaxIterations: 200, Tolerance: 1e-10, InitialLambda: 1e-3, Epsilon: 1e-6}
	if o == nil {
		return r
	}
	if o.MaxIterations > 0 {
		r.MaxIterations = o.MaxIterations
	}
	if o.Tolerance > 0 {
		r.Tolerance = o.Tolerance
	}
	if o.InitialLambda > 0 {
		r.InitialLambda = o.InitialLambda
	}
	if o.Epsilon > 0 {
		r.Epsilon = o.Epsilon
	}
	r.Lower, r.Upper, r.Weights = o.Lower, o.Upper, o.Weights
	return r
}

// project clamps p into the box [Lower, Upper] when bounds are set.
func (o *LMOptions) project(p []float64) {
	for i := range p {
		if o.Lower != nil && p[i] < o.Lower[i] {
			p[i] = o.Lower[i]
		}
		if o.Upper != nil && p[i] > o.Upper[i] {
			p[i] = o.Upper[i]
		}
	}
}

// LMResult reports the outcome of a Levenberg–Marquardt fit.
type LMResult struct {
	// Params holds the fitted parameter vector.
	Params []float64
	// Residual is the final sum of squared residuals.
	Residual float64
	// Iterations is the number of LM steps taken.
	Iterations int
	// Converged reports whether the relative-improvement criterion was met
	// before MaxIterations.
	Converged bool
}

// CurveFit fits model to the observations (xs, ys) starting from p0 using
// Levenberg–Marquardt with a numeric central-difference Jacobian. p0 is not
// modified. The fit requires at least len(p0) observations. It is
// Workspace.Fit on a fresh workspace, for callers that fit once.
func CurveFit(model Func, xs, ys []float64, p0 []float64, opts *LMOptions) (LMResult, error) {
	var w Workspace
	res, err := w.Fit(func(params, xs, out []float64) {
		for i, x := range xs {
			out[i] = model(params, x)
		}
	}, xs, ys, p0, opts)
	res.Params = append([]float64(nil), res.Params...)
	return res, err
}

// Workspace holds every buffer a Levenberg–Marquardt fit needs, so a
// caller that fits repeatedly (the prediction engine refits a growing
// history after every epoch) allocates them once. The zero value is ready
// to use; it grows to the largest problem it has seen. A Workspace serves
// one fit at a time.
type Workspace struct {
	buf []float64 // backs every slice below

	resid, trialResid []float64 // m: residuals at params and at trial
	plus, minus       []float64 // m: model values at params[j] ± h
	jac               []float64 // m×np Jacobian of the model wrt params
	jtj               []float64 // np×np normal matrix JᵀJ
	aug               []float64 // np×(np+1) damped system [JᵀJ + λD | Jᵀr]
	jtr, delta        []float64 // np: right-hand side and LM step
	params, trial     []float64 // np: current and trial parameters
	probe             []float64 // np: params with one entry displaced by ±h
}

// reserve points the workspace's slices at room for m observations of an
// np-parameter model. Their contents are whatever the last fit left.
func (w *Workspace) reserve(m, np int) {
	need := 4*m + m*np + np*np + np*(np+1) + 5*np
	if cap(w.buf) < need {
		// Twice the need: a history that grows by one observation per fit
		// reallocates a few times, not every time.
		w.buf = make([]float64, 2*need)
	}
	rest := w.buf[:need]
	take := func(n int) []float64 {
		s := rest[:n:n]
		rest = rest[n:]
		return s
	}
	w.resid, w.trialResid, w.plus, w.minus = take(m), take(m), take(m), take(m)
	w.jac, w.jtj, w.aug = take(m*np), take(np*np), take(np*(np+1))
	w.jtr, w.delta, w.params, w.trial, w.probe = take(np), take(np), take(np), take(np), take(np)
}

// Fit is CurveFit for a model in batch form — model fills out[i] with the
// curve's value at xs[i] — reusing the workspace's buffers: a fit on a
// workspace that has seen a problem this large allocates nothing.
// LMResult.Params aliases the workspace and is overwritten by its next Fit.
func (w *Workspace) Fit(model func(params, xs, out []float64), xs, ys, p0 []float64, opts *LMOptions) (LMResult, error) {
	o := opts.withDefaults()
	if len(xs) != len(ys) {
		return LMResult{}, fmt.Errorf("fit: %d xs but %d ys", len(xs), len(ys))
	}
	np := len(p0)
	if np == 0 {
		return LMResult{}, errors.New("fit: empty parameter vector")
	}
	m := len(xs)
	if m < np {
		return LMResult{}, fmt.Errorf("fit: %d observations for %d parameters", m, np)
	}
	if (o.Lower != nil && len(o.Lower) != np) || (o.Upper != nil && len(o.Upper) != np) {
		return LMResult{}, fmt.Errorf("fit: bounds length must match %d parameters", np)
	}
	if o.Weights != nil && len(o.Weights) != m {
		return LMResult{}, fmt.Errorf("fit: %d weights for %d observations", len(o.Weights), m)
	}

	w.reserve(m, np)
	params, trial, delta := w.params, w.trial, w.delta
	resid, trialResid := w.resid, w.trialResid
	copy(params, p0)
	o.project(params)
	sse := w.residuals(model, params, xs, ys, o.Weights, resid)
	if math.IsNaN(sse) || math.IsInf(sse, 0) {
		return LMResult{}, errors.New("fit: model not finite at initial parameters")
	}

	lambda := o.InitialLambda
	jac, jtj, jtr, aug := w.jac, w.jtj, w.jtr, w.aug
	res := LMResult{Params: params, Residual: sse}
	for iter := 0; iter < o.MaxIterations; iter++ {
		res.Iterations = iter + 1
		w.jacobian(model, xs, o.Weights, o.Epsilon)

		// Normal equations with LM damping: (JᵀJ + λ·diag(JᵀJ))·δ = Jᵀr.
		clear(jtj)
		clear(jtr)
		for r := 0; r < m; r++ {
			row := jac[r*np : (r+1)*np]
			for i := 0; i < np; i++ {
				for j := i; j < np; j++ {
					jtj[i*np+j] += row[i] * row[j]
				}
				jtr[i] += row[i] * resid[r]
			}
		}
		for i := 0; i < np; i++ {
			for j := 0; j < i; j++ {
				jtj[i*np+j] = jtj[j*np+i]
			}
		}

		improved := false
		// Try increasingly damped steps until one improves the residual.
		for attempt := 0; attempt < 12; attempt++ {
			for i := 0; i < np; i++ {
				row := aug[i*(np+1) : (i+1)*(np+1)]
				copy(row, jtj[i*np:(i+1)*np])
				d := jtj[i*np+i]
				if d == 0 {
					d = 1e-12
				}
				row[i] += lambda * d
				row[np] = jtr[i]
			}
			if err := eliminate(aug, np, delta); err != nil {
				lambda *= 10
				continue
			}
			for i := range trial {
				trial[i] = params[i] + delta[i]
			}
			o.project(trial)
			trialSSE := w.residuals(model, trial, xs, ys, o.Weights, trialResid)
			if !math.IsNaN(trialSSE) && trialSSE < sse {
				rel := (sse - trialSSE) / math.Max(sse, 1e-300)
				copy(params, trial)
				copy(resid, trialResid)
				sse = trialSSE
				lambda = math.Max(lambda/10, 1e-12)
				improved = true
				if rel < o.Tolerance {
					res.Converged = true
				}
				break
			}
			lambda *= 10
		}
		res.Residual = sse
		if res.Converged || !improved {
			// No further progress possible (or converged): stop. A stall
			// with a tiny residual still counts as convergence.
			if !improved && sse <= 1e-18 {
				res.Converged = true
			}
			if !improved && !res.Converged {
				// Stalled: report the best point found; callers inspect
				// Converged to decide whether to trust the extrapolation.
				res.Converged = sse < math.Inf(1)
			}
			break
		}
	}
	return res, nil
}

// residuals fills out[i] = √wᵢ·(ys[i] − model(params, xs[i])) and returns
// the weighted sum of squares (NaN if the model produced a non-finite
// value). A nil ws means unit weights.
func (w *Workspace) residuals(model func(params, xs, out []float64), params, xs, ys, ws, out []float64) float64 {
	vals := w.plus // free between Jacobians
	model(params, xs, vals)
	sse := 0.0
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.NaN()
		}
		r := ys[i] - v
		if ws != nil {
			r *= math.Sqrt(math.Max(ws[i], 0))
		}
		out[i] = r
		sse += r * r
	}
	return sse
}

// jacobian fills jac[i][j] = √wᵢ·∂model(params, xs[i])/∂params[j] at the
// workspace's current params using central differences with per-parameter
// scaled steps. A nil ws means unit weights.
func (w *Workspace) jacobian(model func(params, xs, out []float64), xs, ws []float64, eps float64) {
	np := len(w.params)
	p := w.probe
	copy(p, w.params)
	for j := 0; j < np; j++ {
		h := eps * math.Max(1, math.Abs(p[j]))
		orig := p[j]
		p[j] = orig + h
		model(p, xs, w.plus)
		p[j] = orig - h
		model(p, xs, w.minus)
		inv := 1 / (2 * h)
		for i := range xs {
			w.jac[i*np+j] = (w.plus[i] - w.minus[i]) * inv
		}
		p[j] = orig
	}
	if ws != nil {
		for i := range xs {
			sw := math.Sqrt(math.Max(ws[i], 0))
			row := w.jac[i*np : (i+1)*np]
			for j := range row {
				row[j] *= sw
			}
		}
	}
}
