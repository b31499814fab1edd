// Package fit provides the regression machinery used by the A4NN
// parametric prediction engine: dense linear least squares (via normal
// equations with Gaussian elimination) and nonlinear least squares (via
// Levenberg–Marquardt with a numeric Jacobian).
//
// The prediction engine in internal/predict fits the paper's learning-curve
// family F(x) = a − b^(c−x) to partial validation-accuracy histories; this
// package knows nothing about that family and works for any residual
// function.
package fit

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution
// (the matrix is singular or numerically rank-deficient).
var ErrSingular = errors.New("fit: singular matrix")

// SolveLinear solves the n×n system A·x = b using Gaussian elimination
// with partial pivoting. A and b are not modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
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

// eliminate solves the system held as the row-major n×(n+1) augmented
// matrix aug = [A | b] into x by Gaussian elimination with partial
// pivoting, overwriting aug.
func eliminate(aug []float64, n int, x []float64) error {
	w := n + 1
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest |entry| in this column.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r*w+col]) > math.Abs(aug[pivot*w+col]) {
				pivot = r
			}
		}
		if math.Abs(aug[pivot*w+col]) < 1e-14 {
			return ErrSingular
		}
		if pivot != col {
			pr, cr := aug[pivot*w:(pivot+1)*w], aug[col*w:(col+1)*w]
			for c := range cr {
				cr[c], pr[c] = pr[c], cr[c]
			}
		}
		top := aug[col*w : (col+1)*w]
		inv := 1 / top[col]
		for r := col + 1; r < n; r++ {
			row := aug[r*w : (r+1)*w]
			f := row[col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				row[c] -= f * top[c]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		row := aug[i*w : (i+1)*w]
		s := row[n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return nil
}

// LeastSquares solves the over-determined system X·β ≈ y in the
// least-squares sense via the normal equations XᵀX·β = Xᵀy. X is m×n with
// m ≥ n. Returns the coefficient vector β of length n.
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	m := len(x)
	if m == 0 {
		return nil, errors.New("fit: no observations")
	}
	n := len(x[0])
	if len(y) != m {
		return nil, fmt.Errorf("fit: %d rows but %d targets", m, len(y))
	}
	if m < n {
		return nil, fmt.Errorf("fit: underdetermined system (%d rows, %d unknowns)", m, n)
	}
	xtx := make([][]float64, n)
	for i := range xtx {
		xtx[i] = make([]float64, n)
	}
	xty := make([]float64, n)
	for r := 0; r < m; r++ {
		row := x[r]
		if len(row) != n {
			return nil, fmt.Errorf("fit: ragged design matrix at row %d", r)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[r]
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	return SolveLinear(xtx, xty)
}

// PolyFit fits a polynomial of the given degree to (xs, ys) by least
// squares and returns coefficients c[0..degree], lowest order first.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if degree < 0 {
		return nil, fmt.Errorf("fit: negative degree %d", degree)
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("fit: %d xs but %d ys", len(xs), len(ys))
	}
	design := make([][]float64, len(xs))
	for i, x := range xs {
		row := make([]float64, degree+1)
		p := 1.0
		for d := 0; d <= degree; d++ {
			row[d] = p
			p *= x
		}
		design[i] = row
	}
	return LeastSquares(design, ys)
}

// PolyEval evaluates a polynomial with coefficients c (lowest order first)
// at x using Horner's rule.
func PolyEval(c []float64, x float64) float64 {
	s := 0.0
	for i := len(c) - 1; i >= 0; i-- {
		s = s*x + c[i]
	}
	return s
}

// RSquared returns the coefficient of determination for predictions pred
// of the observations y: 1 − SS_res/SS_tot. A constant y vector yields 1
// when predictions are exact and 0 otherwise.
func RSquared(y, pred []float64) float64 {
	if len(y) == 0 || len(y) != len(pred) {
		return math.NaN()
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	ssRes, ssTot := 0.0, 0.0
	for i := range y {
		d := y[i] - pred[i]
		ssRes += d * d
		m := y[i] - mean
		ssTot += m * m
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
