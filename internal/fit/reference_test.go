package fit

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The functions below are CurveFit, residuals, numericJacobian and
// SolveLinear as they stood before the fit moved onto Workspace, kept
// verbatim as the reference TestFitMatchesReference compares against.

func referenceCurveFit(model Func, xs, ys []float64, p0 []float64, opts *LMOptions) (LMResult, error) {
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

	params := append([]float64(nil), p0...)
	o.project(params)
	resid := make([]float64, m)
	sse := referenceResiduals(model, params, xs, ys, o.Weights, resid)
	if math.IsNaN(sse) || math.IsInf(sse, 0) {
		return LMResult{}, errors.New("fit: model not finite at initial parameters")
	}

	lambda := o.InitialLambda
	jac := make([][]float64, m) // m×np Jacobian of the model wrt params
	for i := range jac {
		jac[i] = make([]float64, np)
	}
	trial := make([]float64, np)
	trialResid := make([]float64, m)

	res := LMResult{Params: params, Residual: sse}
	for iter := 0; iter < o.MaxIterations; iter++ {
		res.Iterations = iter + 1
		referenceJacobian(model, params, xs, o.Weights, jac, o.Epsilon)

		// Normal equations with LM damping: (JᵀJ + λ·diag(JᵀJ))·δ = Jᵀr.
		jtj := make([][]float64, np)
		jtr := make([]float64, np)
		for i := 0; i < np; i++ {
			jtj[i] = make([]float64, np)
		}
		for r := 0; r < m; r++ {
			row := jac[r]
			for i := 0; i < np; i++ {
				for j := i; j < np; j++ {
					jtj[i][j] += row[i] * row[j]
				}
				jtr[i] += row[i] * resid[r]
			}
		}
		for i := 0; i < np; i++ {
			for j := 0; j < i; j++ {
				jtj[i][j] = jtj[j][i]
			}
		}

		improved := false
		// Try increasingly damped steps until one improves the residual.
		for attempt := 0; attempt < 12; attempt++ {
			damped := make([][]float64, np)
			for i := 0; i < np; i++ {
				damped[i] = append([]float64(nil), jtj[i]...)
				d := jtj[i][i]
				if d == 0 {
					d = 1e-12
				}
				damped[i][i] += lambda * d
			}
			delta, err := referenceSolveLinear(damped, jtr)
			if err != nil {
				lambda *= 10
				continue
			}
			for i := range trial {
				trial[i] = params[i] + delta[i]
			}
			o.project(trial)
			trialSSE := referenceResiduals(model, trial, xs, ys, o.Weights, trialResid)
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
		res.Params = params
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

func referenceResiduals(model Func, params, xs, ys, ws, out []float64) float64 {
	sse := 0.0
	for i, x := range xs {
		v := model(params, x)
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

func referenceJacobian(model Func, params, xs, ws []float64, jac [][]float64, eps float64) {
	np := len(params)
	p := append([]float64(nil), params...)
	for j := 0; j < np; j++ {
		h := eps * math.Max(1, math.Abs(p[j]))
		orig := p[j]
		p[j] = orig + h
		for i, x := range xs {
			jac[i][j] = model(p, x)
		}
		p[j] = orig - h
		inv := 1 / (2 * h)
		for i, x := range xs {
			jac[i][j] = (jac[i][j] - model(p, x)) * inv
		}
		p[j] = orig
	}
	if ws != nil {
		for i := range jac {
			sw := math.Sqrt(math.Max(ws[i], 0))
			for j := range jac[i] {
				jac[i][j] *= sw
			}
		}
	}
}

func referenceSolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, errors.New("fit: empty system")
	}
	if len(b) != n {
		return nil, fmt.Errorf("fit: matrix is %d×%d but rhs has length %d", n, len(a[0]), len(b))
	}
	// Work on copies: augmented matrix m = [A | b].
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("fit: row %d has length %d, want %d", i, len(a[i]), n)
		}
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest |entry| in this column.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-14 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// refModel is one test model in both forms: the one-point Func the
// reference and CurveFit take, and the batch loop Workspace.Fit takes.
type refModel struct {
	name string
	np   int
	at   Func
}

func (r refModel) batch(p, xs, out []float64) {
	for i, x := range xs {
		out[i] = r.at(p, x)
	}
}

var refModels = []refModel{
	{"paper", 3, func(p []float64, x float64) float64 {
		e := p[1] * (p[2] - x)
		if e > 700 {
			e = 700
		}
		return p[0] - math.Exp(e)
	}},
	{"linear", 2, func(p []float64, x float64) float64 { return p[0] + p[1]*x }},
	{"power", 3, func(p []float64, x float64) float64 { return p[0] - p[1]*math.Pow(x, -p[2]) }},
	// p[2] moves nothing: a zero Jacobian column, so JᵀJ has a zero
	// diagonal entry (the d == 0 → 1e-12 rule) and the lightly damped
	// system is singular.
	{"dead-param", 3, func(p []float64, x float64) float64 { return p[0] + p[1]*x + 0*p[2] }},
	// Two identical columns: JᵀJ is singular before damping.
	{"twin-params", 3, func(p []float64, x float64) float64 { return p[0] + p[1] + p[2]*x }},
	// Non-finite as soon as a step pushes the rate past 0.6 or below 0.
	{"blow-up", 3, func(p []float64, x float64) float64 {
		if p[1] > 0.6 {
			return math.Inf(1)
		}
		if p[1] < 0 {
			return math.Inf(-1)
		}
		return p[0] - math.Exp(p[1]*(p[2]-x))
	}},
	{"paper+drift", 4, func(p []float64, x float64) float64 {
		return p[0] - math.Exp(p[1]*(p[2]-x)) + p[3]*x
	}},
}

// refProblem draws one fit problem: 3–25 observations of one of five data
// shapes, with or without weights and bounds, started inside or outside
// the box, under default or tight options.
func refProblem(rng *rand.Rand) (mod refModel, xs, ys, p0 []float64, opts *LMOptions) {
	mod = refModels[rng.Intn(len(refModels))]
	m := 3 + rng.Intn(23)
	if m < mod.np {
		m = mod.np
	}
	xs, ys = make([]float64, m), make([]float64, m)
	a, beta, c := 60+40*rng.Float64(), 0.05+0.6*rng.Float64(), 4*rng.Float64()
	shape := rng.Intn(5)
	for i := range xs {
		x := float64(i + 1)
		xs[i] = x
		switch shape {
		case 0: // exponential approach, the engine's everyday input
			ys[i] = a - math.Exp(beta*(c-x)) + 0.5*rng.NormFloat64()
		case 1: // near-linear riser
			ys[i] = 40 + 2.1*x + 0.3*rng.NormFloat64()
		case 2: // flat
			ys[i] = a
		case 3: // decreasing
			ys[i] = a - 1.5*x + 0.2*rng.NormFloat64()
		case 4: // one observation is NaN
			ys[i] = a - math.Exp(beta*(c-x))
		}
	}
	if shape == 4 {
		ys[rng.Intn(m)] = math.NaN()
	}

	p0 = []float64{a + 1, 0.3, 1, 0.01}[:mod.np]
	o := LMOptions{}
	if rng.Intn(2) == 0 {
		o.Lower = []float64{-50, 1e-4, -100, -1}[:mod.np]
		o.Upper = []float64{200, 5, 100, 1}[:mod.np]
		switch rng.Intn(3) {
		case 0: // start on a bound
			p0[1] = o.Upper[1]
		case 1: // start outside the box
			p0[0], p0[1] = 500, -3
		}
	}
	if rng.Intn(2) == 0 {
		o.Weights = make([]float64, m)
		for i := range o.Weights {
			o.Weights[i] = math.Pow(float64(i+1)/float64(m), 2)
		}
		if rng.Intn(4) == 0 {
			o.Weights[rng.Intn(m)] = -1 // counts as zero
		}
	}
	switch rng.Intn(4) {
	case 0:
		o.MaxIterations = 1 + rng.Intn(5)
	case 1:
		o.MaxIterations, o.Tolerance, o.InitialLambda, o.Epsilon = 100, 1e-6, 1, 1e-4
	case 2:
		o.MaxIterations = 100
	}
	return mod, xs, ys, p0, &o
}

func sameResult(a LMResult, aerr error, b LMResult, berr error) bool {
	if (aerr == nil) != (berr == nil) || len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if math.Float64bits(a.Params[i]) != math.Float64bits(b.Params[i]) {
			return false
		}
	}
	return math.Float64bits(a.Residual) == math.Float64bits(b.Residual) &&
		a.Iterations == b.Iterations && a.Converged == b.Converged
}

// TestFitMatchesReference is the same-arithmetic contract: over seeded
// problems the CurveFit adapter and one Workspace reused for every fit
// (so a buffer left over from a larger or differently shaped problem would
// show) return bit for bit what the pre-workspace CurveFit returns —
// parameters, residual, iteration count, converged flag, error or not.
func TestFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var w Workspace
	failed, stalled, capped := 0, 0, 0
	for n := 0; n < 4000; n++ {
		mod, xs, ys, p0, opts := refProblem(rng)
		want, wantErr := referenceCurveFit(mod.at, xs, ys, p0, opts)
		got, err := CurveFit(mod.at, xs, ys, p0, opts)
		if !sameResult(got, err, want, wantErr) {
			t.Fatalf("problem %d (%s, m=%d): CurveFit = %+v, %v; reference %+v, %v", n, mod.name, len(xs), got, err, want, wantErr)
		}
		got, err = w.Fit(mod.batch, xs, ys, p0, opts)
		if !sameResult(got, err, want, wantErr) {
			t.Fatalf("problem %d (%s, m=%d): Workspace.Fit = %+v, %v; reference %+v, %v", n, mod.name, len(xs), got, err, want, wantErr)
		}
		switch {
		case wantErr != nil:
			failed++
		case want.Iterations == opts.withDefaults().MaxIterations && !want.Converged:
			capped++
		case want.Iterations > 1:
			stalled++
		}
	}
	// The generator must keep reaching the loop's distinct exits.
	if failed < 100 || capped < 100 || stalled < 1000 {
		t.Errorf("coverage: %d failed, %d hit the iteration cap, %d iterated; generator drifted", failed, capped, stalled)
	}
}

// TestWorkspaceReuse fits a large problem, then a small one with fewer
// parameters, then the large one again on one workspace: each must equal
// a fit on a fresh workspace, so nothing read is left over from before.
func TestWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	big, small := refModels[6], refModels[1]
	bx, by := make([]float64, 25), make([]float64, 25)
	for i := range bx {
		bx[i] = float64(i + 1)
		by[i] = 90 - math.Exp(0.3*(2-bx[i])) + 0.05*bx[i] + 0.4*rng.NormFloat64()
	}
	bp := []float64{91, 0.3, 1, 0.01}
	sx, sy, sp := []float64{1, 2, 3}, []float64{5, 7.5, 9}, []float64{0, 0}
	weights := &LMOptions{Weights: []float64{0.2, 0.5, 1}}

	var w Workspace
	for round, c := range []struct {
		mod    refModel
		xs, ys []float64
		p0     []float64
		opts   *LMOptions
	}{{big, bx, by, bp, nil}, {small, sx, sy, sp, weights}, {big, bx, by, bp, nil}, {small, sx, sy, sp, nil}} {
		var fresh Workspace
		want, wantErr := fresh.Fit(c.mod.batch, c.xs, c.ys, c.p0, c.opts)
		got, err := w.Fit(c.mod.batch, c.xs, c.ys, c.p0, c.opts)
		if err != nil || !sameResult(got, err, want, wantErr) {
			t.Fatalf("round %d (%s): reused workspace %+v, %v; fresh %+v, %v", round, c.mod.name, got, err, want, wantErr)
		}
	}
}

// TestWorkspaceFitAllocatesNothing: on a workspace that has seen the
// problem's size, a whole fit — Jacobians, damped solves, trial steps —
// makes no allocation.
func TestWorkspaceFitAllocatesNothing(t *testing.T) {
	mod := refModels[0]
	xs, ys := make([]float64, 25), make([]float64, 25)
	for i := range xs {
		xs[i] = float64(i + 1)
		ys[i] = mod.at([]float64{95, 0.35, 4}, xs[i])
	}
	p0 := []float64{96, 0.3, 3}
	opts := &LMOptions{Lower: []float64{0, 1e-4, -50}, Upper: []float64{150, 5, 50}, Weights: make([]float64, 25)}
	for i := range opts.Weights {
		opts.Weights[i] = 1
	}
	var w Workspace
	model := mod.batch
	fitOnce := func() {
		if res, err := w.Fit(model, xs, ys, p0, opts); err != nil || res.Iterations < 3 {
			t.Fatalf("fit: %+v, %v", res, err)
		}
	}
	fitOnce()
	if allocs := testing.AllocsPerRun(20, fitOnce); allocs != 0 {
		t.Errorf("warm Workspace.Fit made %v allocations per fit, want 0", allocs)
	}
}
