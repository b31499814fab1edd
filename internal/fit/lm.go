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
	// Epsilon is the step of a Batch model's central-difference Jacobian
	// (default 1e-6, scaled by max(1,|param|)). A Model with a Jacobian
	// of its own may ignore it.
	Epsilon float64
	// Weights, when non-nil, must have one entry per observation; the
	// fit minimises Σ wᵢ·rᵢ². The prediction engine uses recency weights
	// so late epochs dominate the extrapolation.
	Weights []float64
	// Lower and Upper, when non-nil, impose box constraints: every trial
	// parameter vector is projected into [Lower[i], Upper[i]]. They must
	// have the same length as the parameter vector. Box constraints keep
	// exponential-family models out of degenerate flat regions where the
	// Jacobian vanishes.
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
	batch := Batch(func(params, xs, out []float64) {
		for i, x := range xs {
			out[i] = model(params, x)
		}
	})
	res, err := w.Fit(batch, xs, ys, p0, opts)
	res.Params = append([]float64(nil), res.Params...)
	return res, err
}

// Model is a curve in the form Workspace.Fit consumes: whole histories at
// a time, and the whole Jacobian in one call.
type Model interface {
	// Eval fills out[i] with the curve's value at xs[i].
	Eval(params, xs, out []float64)
	// Jacobian fills jac with the curve's derivatives at params, stored
	// column-major: with m = len(xs), jac[j*m+i] = ∂f(params, xs[i])/∂params[j].
	// eps (LMOptions.Epsilon) and tmp (m values of scratch) serve a model
	// that differentiates numerically. params is the fit's copy of the
	// current parameters; Jacobian may change it.
	Jacobian(params, xs []float64, eps float64, jac, tmp []float64)
}

// Batch adapts a curve in plain batch form — it fills out[i] with the
// curve's value at xs[i] — to Model, with a central-difference Jacobian.
type Batch func(params, xs, out []float64)

// Eval implements Model.
func (f Batch) Eval(params, xs, out []float64) { f(params, xs, out) }

// Jacobian implements Model by central differences, with the step
// h = eps·max(1, |params[j]|): the curve at params[j]+h then at
// params[j]−h, for each j in turn.
func (f Batch) Jacobian(params, xs []float64, eps float64, jac, tmp []float64) {
	m := len(xs)
	for j, orig := range params {
		h := eps * math.Max(1, math.Abs(orig))
		col := jac[j*m : (j+1)*m]
		params[j] = orig + h
		f(params, xs, col)
		params[j] = orig - h
		f(params, xs, tmp)
		params[j] = orig
		inv := 1 / (2 * h)
		for i := range col {
			col[i] = (col[i] - tmp[i]) * inv
		}
	}
}

// Workspace holds every buffer a Levenberg–Marquardt fit needs, so a
// caller that fits repeatedly (the prediction engine refits a growing
// history after every epoch) allocates them once. The zero value is ready
// to use; it grows to the largest problem it has seen. A Workspace serves
// one fit at a time.
type Workspace struct {
	buf []float64 // backs every slice below

	resid, trialResid []float64 // m: residuals at params and at trial
	vals              []float64 // m: model values behind a residual; the Jacobian's scratch
	sw                []float64 // m: √max(wᵢ, 0), the weight on residual i
	jac               []float64 // m×np, column-major: the weighted Jacobian
	jtj               []float64 // np×np normal matrix JᵀJ
	aug               []float64 // np×(np+1) damped system [JᵀJ + λD | Jᵀr]
	jtr, delta        []float64 // np: right-hand side and LM step
	params, trial     []float64 // np: current and trial parameters
}

// reserve points the workspace's slices at room for m observations of an
// np-parameter model. Their contents are whatever the last fit left.
func (w *Workspace) reserve(m, np int) {
	need := 4*m + m*np + np*np + np*(np+1) + 4*np
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
	w.resid, w.trialResid, w.vals, w.sw = take(m), take(m), take(m), take(m)
	w.jac, w.jtj, w.aug = take(m*np), take(np*np), take(np*(np+1))
	w.jtr, w.delta, w.params, w.trial = take(np), take(np), take(np), take(np)
}

// Fit is CurveFit for a Model, reusing the workspace's buffers: a fit on
// a workspace that has seen a problem this large allocates nothing.
// LMResult.Params aliases the workspace and is overwritten by its next Fit.
func (w *Workspace) Fit(model Model, xs, ys, p0 []float64, opts *LMOptions) (LMResult, error) {
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
	sw := w.sw
	if o.Weights == nil {
		sw = nil
	} else {
		for i, wi := range o.Weights {
			sw[i] = math.Sqrt(math.Max(wi, 0))
		}
	}
	params, trial, delta := w.params, w.trial, w.delta
	resid, trialResid := w.resid, w.trialResid
	copy(params, p0)
	o.project(params)
	sse := w.residuals(model, params, xs, ys, sw, resid)
	if math.IsNaN(sse) || math.IsInf(sse, 0) {
		return LMResult{}, errors.New("fit: model not finite at initial parameters")
	}

	lambda := o.InitialLambda
	res := LMResult{Params: params, Residual: sse}
	for iter := 0; iter < o.MaxIterations; iter++ {
		res.Iterations = iter + 1
		w.jacobian(model, xs, sw, o.Epsilon)
		w.normal(m, np)

		improved := false
		// Try increasingly damped steps until one improves the residual.
		for attempt := 0; attempt < 12; attempt++ {
			if err := w.solveDamped(np, lambda); err != nil {
				lambda *= 10
				continue
			}
			for i := range trial {
				trial[i] = params[i] + delta[i]
			}
			o.project(trial)
			trialSSE := w.residuals(model, trial, xs, ys, sw, trialResid)
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
// value). A nil sw means unit weights.
func (w *Workspace) residuals(model Model, params, xs, ys, sw, out []float64) float64 {
	vals := w.vals
	model.Eval(params, xs, vals)
	sse := 0.0
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.NaN()
		}
		r := ys[i] - v
		if sw != nil {
			r *= sw[i]
		}
		out[i] = r
		sse += r * r
	}
	return sse
}

// jacobian overwrites w.jac with the m×np column-major Jacobian
// J[j*m+i] = √wᵢ·∂model(params, xs[i])/∂params[j] at the workspace's
// current params, from one model.Jacobian on a copy of them in w.trial.
// A nil sw means unit weights.
func (w *Workspace) jacobian(model Model, xs, sw []float64, eps float64) {
	copy(w.trial, w.params)
	model.Jacobian(w.trial, xs, eps, w.jac, w.vals)
	if sw == nil {
		return
	}
	m := len(xs)
	for j := range w.params {
		col := w.jac[j*m : (j+1)*m]
		for i := range col {
			col[i] *= sw[i]
		}
	}
}

// normal forms the normal equations JᵀJ and Jᵀr of the Jacobian in
// w.jac and the residuals in w.resid. Every entry is one dot product of
// two contiguous columns summed in ascending observation order. Three
// parameters take normal3, which sums the same products in the same
// order.
func (w *Workspace) normal(m, np int) {
	if np == 3 {
		w.normal3(m)
		return
	}
	jac, resid, jtj, jtr := w.jac, w.resid[:m], w.jtj, w.jtr
	for i := 0; i < np; i++ {
		ci := jac[i*m : (i+1)*m]
		for j := i; j < np; j++ {
			cj := jac[j*m : (j+1)*m]
			s := 0.0
			for r, v := range ci {
				s += v * cj[r]
			}
			jtj[i*np+j], jtj[j*np+i] = s, s
		}
		s := 0.0
		for r, v := range ci {
			s += v * resid[r]
		}
		jtr[i] = s
	}
}

// normal3 is normal for three parameters, in one pass over the
// observations: the six sums of JᵀJ and the three of Jᵀr are nine local
// accumulators, each still taken in ascending observation order, so every
// entry has the bits normal's column-by-column loops give it.
func (w *Workspace) normal3(m int) {
	j0 := w.jac[:m]
	j1, j2, resid := w.jac[m:2*m], w.jac[2*m:3*m], w.resid[:m]
	// Reslicing to len(j0) lets the compiler drop the loop's bounds checks.
	j1, j2, resid = j1[:len(j0)], j2[:len(j0)], resid[:len(j0)]
	var s00, s01, s02, s11, s12, s22, r0, r1, r2 float64
	for i, a := range j0 {
		b, c, r := j1[i], j2[i], resid[i]
		s00 += a * a
		s01 += a * b
		s02 += a * c
		s11 += b * b
		s12 += b * c
		s22 += c * c
		r0 += a * r
		r1 += b * r
		r2 += c * r
	}
	jtj := w.jtj[:9]
	jtj[0], jtj[1], jtj[2] = s00, s01, s02
	jtj[3], jtj[4], jtj[5] = s01, s11, s12
	jtj[6], jtj[7], jtj[8] = s02, s12, s22
	jtr := w.jtr[:3]
	jtr[0], jtr[1], jtr[2] = r0, r1, r2
}

// solveDamped solves the LM system (JᵀJ + λ·diag(JᵀJ))·δ = Jᵀr into
// w.delta; a zero diagonal entry of JᵀJ damps by λ·1e-12. Three
// parameters take solve3 on a fixed-size copy of the system, which
// eliminates with eliminate's arithmetic.
func (w *Workspace) solveDamped(np int, lambda float64) error {
	jtj, jtr := w.jtj, w.jtr
	if np == 3 {
		jtj, jtr := (*[9]float64)(jtj), (*[3]float64)(jtr)
		var a [3][4]float64
		a[0] = [4]float64{jtj[0], jtj[1], jtj[2], jtr[0]}
		a[1] = [4]float64{jtj[3], jtj[4], jtj[5], jtr[1]}
		a[2] = [4]float64{jtj[6], jtj[7], jtj[8], jtr[2]}
		for i := range a {
			d := jtj[4*i]
			if d == 0 {
				d = 1e-12
			}
			a[i][i] += lambda * d
		}
		return solve3(&a, (*[3]float64)(w.delta))
	}
	aug := w.aug
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
	return eliminate(aug, np, w.delta)
}
