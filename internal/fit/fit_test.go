package fit

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// solveLinear and leastSquares are the general entries to eliminate and
// normalSolve that the tests below drive; the engine reaches both through
// the LM step and PolyFit.

// solveLinear solves the n×n system A·x = b using Gaussian elimination
// with partial pivoting. A and b are not modified.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, errors.New("fit: empty system")
	}
	if len(b) != n {
		return nil, fmt.Errorf("fit: matrix is %d×%d but rhs has length %d", n, len(a[0]), len(b))
	}
	// Work on a copy: augmented matrix [A | b].
	aug := make([]float64, n*(n+1))
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("fit: row %d has length %d, want %d", i, len(a[i]), n)
		}
		copy(aug[i*(n+1):], a[i])
		aug[i*(n+1)+n] = b[i]
	}
	x := make([]float64, n)
	if err := eliminate(aug, n, x); err != nil {
		return nil, err
	}
	return x, nil
}

// leastSquares solves the over-determined system X·β ≈ y in the
// least-squares sense via the normal equations XᵀX·β = Xᵀy. X is m×n with
// m ≥ n. Returns the coefficient vector β of length n.
func leastSquares(x [][]float64, y []float64) ([]float64, error) {
	m := len(x)
	if m == 0 {
		return nil, errors.New("fit: no observations")
	}
	n := len(x[0])
	for r, row := range x {
		if len(row) != n {
			return nil, fmt.Errorf("fit: ragged design matrix at row %d", r)
		}
	}
	return normalSolve(m, n, y, func(r int, row []float64) { copy(row, x[r]) })
}

func TestSolveLinearKnown(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveLinearPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := solveLinear(a, []float64{1, 2}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearBadInput(t *testing.T) {
	if _, err := solveLinear(nil, nil); err == nil {
		t.Fatal("expected error for empty system")
	}
	if _, err := solveLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected size mismatch error")
	}
	if _, err := solveLinear([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Fatal("expected ragged row error")
	}
}

// Property: solving A·x = b then multiplying back recovers b.
func TestSolveLinearRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i] += float64(n) // diagonal dominance keeps it well-conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := solveLinear(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += a[i][j] * x[j]
			}
			if math.Abs(s-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// y = 2 + 3x fits exactly.
	x := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	y := []float64{2, 5, 8, 11}
	beta, err := leastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-2) > 1e-10 || math.Abs(beta[1]-3) > 1e-10 {
		t.Fatalf("beta = %v, want [2 3]", beta)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Noisy line: recovered slope/intercept should be near truth.
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		xi := float64(i) / 10
		x = append(x, []float64{1, xi})
		y = append(y, 1.5+0.7*xi+rng.NormFloat64()*0.01)
	}
	beta, err := leastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-1.5) > 0.05 || math.Abs(beta[1]-0.7) > 0.01 {
		t.Fatalf("beta = %v, want ≈[1.5 0.7]", beta)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := leastSquares(nil, nil); err == nil {
		t.Fatal("expected error for no observations")
	}
	if _, err := leastSquares([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("expected row/target mismatch error")
	}
	if _, err := leastSquares([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("expected underdetermined error")
	}
	if _, err := leastSquares([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Fatal("expected ragged matrix error")
	}
}

func TestPolyFitQuadratic(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1 - 2*x + 0.5*x*x
	}
	c, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 0.5}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-9 {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1}, []float64{1}, -1); err == nil {
		t.Fatal("expected degree error")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

// paperCurve is the paper's learning-curve family F(x) = a − b^(c−x),
// parameterised as (a, logb, c) so b = e^logb stays positive.
func paperCurve(p []float64, x float64) float64 {
	return p[0] - math.Exp(p[1]*(p[2]-x))
}

func TestCurveFitRecoversPaperFamily(t *testing.T) {
	// Ground truth: a=95, b=e^0.35, c=4  (accuracy saturating at 95%).
	truth := []float64{95, 0.35, 4}
	var xs, ys []float64
	for e := 1; e <= 20; e++ {
		xs = append(xs, float64(e))
		ys = append(ys, paperCurve(truth, float64(e)))
	}
	// Initial guess as the prediction engine computes it: a₀ slightly above
	// the best observed fitness, (β, c) from linearising log(a₀−y).
	// From a poor/global start this family has a degenerate constant-fit
	// basin, which is why the engine seeds LM this way (see internal/predict).
	bounds := &LMOptions{Lower: []float64{0, 1e-4, -50}, Upper: []float64{150, 5, 50}}
	res, err := CurveFit(paperCurve, xs, ys, []float64{96, 0.3, 3}, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("fit did not converge: %+v", res)
	}
	if math.Abs(res.Params[0]-95) > 0.1 {
		t.Fatalf("a = %v, want ≈95", res.Params[0])
	}
	// Extrapolation at epoch 25 should match the truth closely.
	pred := paperCurve(res.Params, 25)
	want := paperCurve(truth, 25)
	if math.Abs(pred-want) > 0.2 {
		t.Fatalf("extrapolation %v, want %v", pred, want)
	}
}

func TestCurveFitNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	truth := []float64{90, 0.5, 2}
	var xs, ys []float64
	for e := 1; e <= 15; e++ {
		xs = append(xs, float64(e))
		ys = append(ys, paperCurve(truth, float64(e))+rng.NormFloat64()*0.3)
	}
	res, err := CurveFit(paperCurve, xs, ys, []float64{91, 0.4, 1.5},
		&LMOptions{Lower: []float64{0, 1e-4, -50}, Upper: []float64{150, 5, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-90) > 2 {
		t.Fatalf("a = %v, want ≈90", res.Params[0])
	}
}

func TestCurveFitLinearModel(t *testing.T) {
	lin := func(p []float64, x float64) float64 { return p[0] + p[1]*x }
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	res, err := CurveFit(lin, xs, ys, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-1) > 1e-6 || math.Abs(res.Params[1]-2) > 1e-6 {
		t.Fatalf("params = %v, want [1 2]", res.Params)
	}
	if res.Residual > 1e-10 {
		t.Fatalf("residual = %v", res.Residual)
	}
}

func TestCurveFitErrors(t *testing.T) {
	lin := func(p []float64, x float64) float64 { return p[0] }
	if _, err := CurveFit(lin, []float64{1}, []float64{1, 2}, []float64{0}, nil); err == nil {
		t.Fatal("expected xs/ys mismatch error")
	}
	if _, err := CurveFit(lin, []float64{1}, []float64{1}, nil, nil); err == nil {
		t.Fatal("expected empty-params error")
	}
	if _, err := CurveFit(lin, []float64{1}, []float64{1}, []float64{0, 0}, nil); err == nil {
		t.Fatal("expected too-few-observations error")
	}
	nan := func(p []float64, x float64) float64 { return math.NaN() }
	if _, err := CurveFit(nan, []float64{1}, []float64{1}, []float64{0}, nil); err == nil {
		t.Fatal("expected non-finite model error")
	}
	if _, err := CurveFit(lin, []float64{1}, []float64{1}, []float64{0},
		&LMOptions{Lower: []float64{0, 0}}); err == nil {
		t.Fatal("expected bounds-length error")
	}
}

func TestCurveFitRespectsBounds(t *testing.T) {
	lin := func(p []float64, x float64) float64 { return p[0] + p[1]*x }
	// Unconstrained optimum is intercept 1, slope 2; force slope ≤ 1.
	res, err := CurveFit(lin, []float64{0, 1, 2, 3}, []float64{1, 3, 5, 7}, []float64{0, 0},
		&LMOptions{Lower: []float64{-10, -1}, Upper: []float64{10, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Params[1] > 1+1e-12 {
		t.Fatalf("slope %v exceeds upper bound 1", res.Params[1])
	}
}

func TestCurveFitDoesNotMutateP0(t *testing.T) {
	lin := func(p []float64, x float64) float64 { return p[0] + p[1]*x }
	p0 := []float64{0, 0}
	if _, err := CurveFit(lin, []float64{0, 1, 2}, []float64{1, 3, 5}, p0, nil); err != nil {
		t.Fatal(err)
	}
	if p0[0] != 0 || p0[1] != 0 {
		t.Fatalf("p0 mutated: %v", p0)
	}
}

func TestLMOptionsDefaults(t *testing.T) {
	o := (&LMOptions{MaxIterations: 5}).withDefaults()
	if o.MaxIterations != 5 || o.Tolerance != 1e-10 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	d := (*LMOptions)(nil).withDefaults()
	if d.MaxIterations != 200 {
		t.Fatalf("nil defaults not applied: %+v", d)
	}
}

func BenchmarkCurveFitPaperFamily(b *testing.B) {
	truth := []float64{95, 0.35, 4}
	var xs, ys []float64
	for e := 1; e <= 12; e++ {
		xs = append(xs, float64(e))
		ys = append(ys, paperCurve(truth, float64(e)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CurveFit(paperCurve, xs, ys, []float64{80, 0.2, 1}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCurveFitWeighted(t *testing.T) {
	lin := func(p []float64, x float64) float64 { return p[0] + p[1]*x }
	// Two regimes: x<3 on one line, x≥3 on another. Heavy weights on the
	// second regime must recover its slope.
	xs := []float64{0, 1, 2, 3, 4, 5, 6}
	ys := []float64{10, 10, 10, 3, 4, 5, 6} // late regime: y = x
	w := []float64{0.001, 0.001, 0.001, 1, 1, 1, 1}
	res, err := CurveFit(lin, xs, ys, []float64{0, 0}, &LMOptions{Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]) > 0.2 || math.Abs(res.Params[1]-1) > 0.1 {
		t.Fatalf("weighted fit %v, want ≈[0 1]", res.Params)
	}
	// Wrong weight count must fail.
	if _, err := CurveFit(lin, xs, ys, []float64{0, 0}, &LMOptions{Weights: []float64{1}}); err == nil {
		t.Fatal("weight length mismatch must fail")
	}
}
