package fit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameFloat reports whether a and b have the same bits or are both NaN.
// Which NaN an operation on two NaNs returns depends on the operand order
// the compiler picks for a commutative product, in eliminate as in the
// fixed-size paths, and Go leaves that open; every other value must match
// bit for bit.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameSolve fails unless solve3 and eliminate agree on a: the same error,
// and without one the same bits in every component of x. It returns the
// error.
func sameSolve(t *testing.T, a [3][4]float64, what string) error {
	t.Helper()
	aug := make([]float64, 0, 12)
	for _, row := range a {
		aug = append(aug, row[:]...)
	}
	want := make([]float64, 3)
	wantErr := eliminate(aug, 3, want)
	in, got := a, [3]float64{-1, -1, -1}
	err := solve3(&in, &got)
	if err != wantErr {
		t.Fatalf("%s: solve3(%v) error %v, eliminate %v", what, a, err, wantErr)
	}
	if err != nil {
		if got != [3]float64{-1, -1, -1} {
			t.Fatalf("%s: solve3(%v) wrote %v before ErrSingular", what, a, got)
		}
		return err
	}
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: solve3(%v) = %v, eliminate gives %v", what, a, got, want)
		}
	}
	return nil
}

// solvePool draws the entries the structured cases fill in around: signed
// zeros, the singular threshold and its neighbours, small integers (so
// eliminated entries come out exact and tie), non-finite values, and
// normals across forty decades.
func solvePool(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return []float64{0, math.Copysign(0, -1)}[rng.Intn(2)]
	case 1:
		v := []float64{1e-14, math.Nextafter(1e-14, 0), math.Nextafter(1e-14, 1)}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	case 2, 3:
		return float64(rng.Intn(9) - 4)
	case 4:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(41)-20))
	}
}

// TestSolve3MatchesEliminate holds the fixed-size 3×3 solve to eliminate
// on bits and on ErrSingular: random systems, ties in |pivot| at each
// column (the first row must win), zero diagonals, a pivot just under and
// at the 1e-14 singular threshold at each column, NaN and ±Inf entries,
// and systems drawn entry by entry from all of those at once.
func TestSolve3MatchesEliminate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func() (a [3][4]float64) {
		for i := range a {
			for j := range a[i] {
				a[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
		}
		return a
	}
	sign := func() float64 { return float64(2*rng.Intn(2) - 1) }
	under := math.Nextafter(1e-14, 0)
	cases := []struct {
		name string
		draw func() [3][4]float64
	}{
		{"random", random},
		{"tie-col0", func() [3][4]float64 {
			a := random()
			v := a[0][0]
			for _, r := range rng.Perm(3)[:2+rng.Intn(2)] {
				a[r][0] = sign() * v
			}
			return a
		}},
		// Rows 1 and 2 untouched by column 0 (their entries there are 0),
		// equal in |entry| at column 1.
		{"tie-col1-direct", func() [3][4]float64 {
			a := random()
			a[1][0], a[2][0] = 0, 0
			a[2][1] = sign() * a[1][1]
			return a
		}},
		// Small integers: column 0's elimination is exact and leaves rows
		// 1 and 2 tied at column 1.
		{"tie-col1-eliminated", func() (a [3][4]float64) {
			for i := range a {
				for j := range a[i] {
					a[i][j] = float64(rng.Intn(9) - 4)
				}
			}
			a[0][0], a[1][0], a[2][0] = 1, 1, 1
			a[2][1] = 2*a[0][1] - a[1][1]
			return a
		}},
		{"zero-diagonal", func() [3][4]float64 {
			a := random()
			for _, i := range rng.Perm(3)[:1+rng.Intn(3)] {
				a[i][i] = 0
			}
			return a
		}},
		{"threshold-col0", func() [3][4]float64 {
			a := random()
			for r := range 3 {
				a[r][0] = sign() * under * rng.Float64()
			}
			a[rng.Intn(3)][0] = sign() * []float64{under, 1e-14}[rng.Intn(2)]
			return a
		}},
		{"threshold-col1", func() [3][4]float64 {
			a := random()
			a[1][0], a[2][0] = 0, 0
			a[1][1], a[2][1] = sign()*under*rng.Float64(), sign()*under*rng.Float64()
			a[1+rng.Intn(2)][1] = sign() * []float64{under, 1e-14}[rng.Intn(2)]
			return a
		}},
		{"threshold-col2", func() [3][4]float64 {
			a := random()
			a[2][0], a[2][1] = 0, 0
			a[1][0] = 0
			a[2][2] = sign() * []float64{under, 1e-14}[rng.Intn(2)]
			return a
		}},
		{"non-finite", func() [3][4]float64 {
			a := random()
			for range 1 + rng.Intn(3) {
				a[rng.Intn(3)][rng.Intn(4)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			}
			return a
		}},
		{"pool", func() (a [3][4]float64) {
			for i := range a {
				for j := range a[i] {
					a[i][j] = solvePool(rng)
				}
			}
			return a
		}},
	}
	for _, c := range cases {
		singular := 0
		for n := 0; n < 20000; n++ {
			if sameSolve(t, c.draw(), fmt.Sprintf("%s %d", c.name, n)) != nil {
				singular++
			}
		}
		t.Logf("%s: %d of 20000 singular", c.name, singular)
	}
}

// TestNp3PathMatchesGeneral holds the three-parameter normal equations and
// damped solve to the general loops, bit for bit and error for error:
// normal3 against the column-by-column dot products, and solveDamped's
// fixed-size path against the augmented system built as for any other np
// and passed to eliminate, over Jacobians with zero, tied and non-finite
// columns and every damping the fit reaches.
func TestNp3PathMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var w Workspace
	for n := 0; n < 20000; n++ {
		m := 3 + rng.Intn(23)
		w.reserve(m, 3)
		for i := range w.jac {
			w.jac[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		for i := range w.resid {
			w.resid[i] = rng.NormFloat64()
		}
		switch rng.Intn(5) {
		case 0: // a dead column: a zero diagonal, damped by λ·1e-12
			clear(w.jac[rng.Intn(3)*m:][:m])
		case 1: // twin columns
			copy(w.jac[2*m:3*m], w.jac[m:2*m])
		case 2:
			w.jac[rng.Intn(3*m)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}

		w.normal3(m)
		got := append([]float64(nil), w.jtj...)
		gotR := append([]float64(nil), w.jtr...)
		for i := range 3 {
			ci := w.jac[i*m : (i+1)*m]
			for j := range 3 {
				cj := w.jac[j*m : (j+1)*m]
				s := 0.0
				for r, v := range ci {
					s += v * cj[r]
				}
				if !sameFloat(got[i*3+j], s) {
					t.Fatalf("problem %d: normal3 JᵀJ[%d][%d] = %v, column dot product %v", n, i, j, got[i*3+j], s)
				}
			}
			s := 0.0
			for r, v := range ci {
				s += v * w.resid[r]
			}
			if !sameFloat(gotR[i], s) {
				t.Fatalf("problem %d: normal3 Jᵀr[%d] = %v, column dot product %v", n, i, gotR[i], s)
			}
		}

		lambda := 1e-3 * math.Pow(10, float64(rng.Intn(16)-9))
		aug := make([]float64, 12)
		for i := range 3 {
			copy(aug[i*4:], w.jtj[i*3:i*3+3])
			d := w.jtj[i*3+i]
			if d == 0 {
				d = 1e-12
			}
			aug[i*4+i] += lambda * d
			aug[i*4+3] = w.jtr[i]
		}
		want := []float64{-1, -1, -1}
		wantErr := eliminate(aug, 3, want)
		copy(w.delta, []float64{-1, -1, -1})
		err := w.solveDamped(3, lambda)
		if err != wantErr {
			t.Fatalf("problem %d: solveDamped error %v, eliminate %v", n, err, wantErr)
		}
		for i := range want {
			if !sameFloat(w.delta[i], want[i]) {
				t.Fatalf("problem %d: solveDamped δ = %v, eliminate gives %v", n, w.delta, want)
			}
		}
	}
}
