// Package fit provides the regression machinery used by the A4NN
// parametric prediction engine: dense linear least squares (via normal
// equations with Gaussian elimination) and nonlinear least squares (via
// Levenberg–Marquardt on the model's own Jacobian: a central-difference
// one, with step LMOptions.Epsilon, for a Batch model).
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

// solve3 is eliminate for n = 3 on a fixed-size augmented matrix, which
// it overwrites, solving into x (left as it was on ErrSingular): the same
// pivot rule (the first row of largest |entry|, by strict >), the same
// 1e-14 singular test, the same f == 0 skip, and every entry that is read
// again computed by the same operations in the same order, so x has
// eliminate's bits and the error is the same. Rows trade places as
// pointers, not contents; the entries elimination zeroes are never read
// again, so they are not written.
func solve3(a *[3][4]float64, x *[3]float64) error {
	r0, r1, r2 := &a[0], &a[1], &a[2]

	p := r0
	if math.Abs(r1[0]) > math.Abs(p[0]) {
		p = r1
	}
	if math.Abs(r2[0]) > math.Abs(p[0]) {
		p = r2
	}
	if math.Abs(p[0]) < 1e-14 {
		return ErrSingular
	}
	switch p {
	case r1:
		r0, r1 = r1, r0
	case r2:
		r0, r2 = r2, r0
	}
	inv := 1 / r0[0]
	if f := r1[0] * inv; f != 0 {
		r1[1] -= f * r0[1]
		r1[2] -= f * r0[2]
		r1[3] -= f * r0[3]
	}
	if f := r2[0] * inv; f != 0 {
		r2[1] -= f * r0[1]
		r2[2] -= f * r0[2]
		r2[3] -= f * r0[3]
	}

	if math.Abs(r2[1]) > math.Abs(r1[1]) {
		r1, r2 = r2, r1
	}
	if math.Abs(r1[1]) < 1e-14 {
		return ErrSingular
	}
	inv = 1 / r1[1]
	if f := r2[1] * inv; f != 0 {
		r2[2] -= f * r1[2]
		r2[3] -= f * r1[3]
	}

	if math.Abs(r2[2]) < 1e-14 {
		return ErrSingular
	}
	x[2] = r2[3] / r2[2]
	s := r1[3]
	s -= r1[2] * x[2]
	x[1] = s / r1[1]
	s = r0[3]
	s -= r0[1] * x[1]
	s -= r0[2] * x[2]
	x[0] = s / r0[0]
	return nil
}

// normalSolve solves X·β ≈ y in the least-squares sense via the normal
// equations XᵀX·β = Xᵀy, for the m×n (m ≥ n) design matrix whose row r
// fill(r, row) writes: it accumulates XᵀX and Xᵀy one row at a time
// straight into the augmented system [XᵀX | Xᵀy] and eliminates it, so no
// design matrix is ever stored.
func normalSolve(m, n int, y []float64, fill func(r int, row []float64)) ([]float64, error) {
	if m == 0 {
		return nil, errors.New("fit: no observations")
	}
	if len(y) != m {
		return nil, fmt.Errorf("fit: %d rows but %d targets", m, len(y))
	}
	if m < n {
		return nil, fmt.Errorf("fit: underdetermined system (%d rows, %d unknowns)", m, n)
	}
	w := n + 1
	buf := make([]float64, n*w+2*n) // the augmented system, one row, β
	aug, row, beta := buf[:n*w], buf[n*w:n*w+n], buf[n*w+n:]
	for r := 0; r < m; r++ {
		fill(r, row)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				aug[i*w+j] += row[i] * row[j]
			}
			aug[i*w+n] += row[i] * y[r]
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			aug[i*w+j] = aug[j*w+i]
		}
	}
	if err := eliminate(aug, n, beta); err != nil {
		return nil, err
	}
	return beta, nil
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
	return normalSolve(len(xs), degree+1, ys, func(r int, row []float64) {
		p := 1.0
		for d := range row {
			row[d] = p
			p *= xs[r]
		}
	})
}
