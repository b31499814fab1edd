package tensor

import "fmt"

// Cache-blocking parameters for the GEMM kernels, sized for typical
// x86-64 cache hierarchies with float64 elements:
//
//   - a gemmBlockK-row panel of B revisited by every row pair of A spans
//     128·n·8 B — for the matrix widths the conv/dense layers produce it
//     stays L2-resident across the whole sweep over A;
//   - the two C rows a row pair updates stream alongside exactly one B
//     row, keeping the inner loop (axpy2) at three active memory streams.
//     With the portable Go loop that measured faster than a four-row
//     tile, which adds two more store streams per loop and stalls the
//     store ports; the assembly axpy2 keeps the same two-row shape, and
//     is not to be widened without a number of its own.
//
// Pairing two rows of A reuses each loaded element of B twice from
// registers, halving the dominant memory traffic of the naive i-p-j loop.
const (
	gemmBlockK = 128
	// transBBlockK bounds the dot-product segments of the a·bᵀ kernel so
	// one A segment plus four B segments stay in L1.
	transBBlockK = 1024
)

// MatMulInto computes dst = a·b for rank-2 tensors with a (m×k), b (k×n),
// dst (m×n), overwriting dst, with cache-blocked, register-tiled inner
// loops. dst must not alias a or b. Per-element accumulation order matches
// the naive i-p-j loop, so results are bitwise identical to the reference
// under any worker count and with either form of the axpy kernel.
func MatMulInto(a, b, dst *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		return fmt.Errorf("tensor: MatMulInto requires rank-2 tensors, got %v, %v, %v", a.shape, b.shape, dst.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: MatMulInto inner dimension mismatch %v vs %v", a.shape, b.shape)
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.shape, m, n)
	}
	dst.Zero()
	countMatMul(m, n, k)
	gemmParallel(m, n, func(i0, i1, j0, j1 int) {
		gemmPanel(a.data, b.data, dst.data, k, n, i0, i1, j0, j1)
	})
	return nil
}

// MatMulTransAInto computes dst = aᵀ·b with a (k×m), b (k×n), dst (m×n),
// overwriting dst, without materialising the transpose. dst must not alias
// a or b. Results are bitwise identical to the naive reference, as for
// MatMulInto.
func MatMulTransAInto(a, b, dst *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		return fmt.Errorf("tensor: MatMulTransAInto requires rank-2 tensors, got %v, %v, %v", a.shape, b.shape, dst.shape)
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: MatMulTransAInto inner dimension mismatch %v vs %v", a.shape, b.shape)
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: MatMulTransAInto dst shape %v, want [%d %d]", dst.shape, m, n)
	}
	dst.Zero()
	countMatMul(m, n, k)
	gemmParallel(m, n, func(i0, i1, j0, j1 int) {
		gemmTransAPanel(a.data, b.data, dst.data, k, m, n, i0, i1, j0, j1)
	})
	return nil
}

// MatMulTransBInto computes dst = a·bᵀ with a (m×k), b (n×k), dst (m×n),
// overwriting dst, without materialising the transpose. dst must not alias
// a or b. Each element is a dot product accumulated in ascending p within
// transBBlockK-long segments of k whose partial sums are then added in
// order: bitwise identical to the naive single-accumulator dot product for
// k ≤ transBBlockK, and within the usual float64 re-association error
// (≪ 1e-12 relative) beyond it. Results do not depend on the worker count.
func MatMulTransBInto(a, b, dst *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		return fmt.Errorf("tensor: MatMulTransBInto requires rank-2 tensors, got %v, %v, %v", a.shape, b.shape, dst.shape)
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: MatMulTransBInto inner dimension mismatch %v vs %v", a.shape, b.shape)
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: MatMulTransBInto dst shape %v, want [%d %d]", dst.shape, m, n)
	}
	dst.Zero()
	countMatMul(m, n, k)
	gemmParallel(m, n, func(i0, i1, j0, j1 int) {
		gemmTransBPanel(a.data, b.data, dst.data, k, n, i0, i1, j0, j1)
	})
	return nil
}

// gemmParallel splits the m×n output across the worker pool: over row
// chunks when there are enough rows to feed every worker a few row pairs,
// otherwise over columns (a conv layer's weight gradient is a short
// product — a handful of filter rows times C·kh·kw columns). Columns are
// split in quads, so every worker's share of the a·bᵀ kernel is whole
// four-dot groups. Either way each output element has exactly one owner
// and k is never split, so the split cannot change a result.
func gemmParallel(m, n int, panel func(i0, i1, j0, j1 int)) {
	if m >= 4*maxWorkers {
		parallelRange(m, 8, func(lo, hi int) { panel(lo, hi, 0, n) })
		return
	}
	parallelRange((n+3)/4, 2, func(lo, hi int) { panel(0, m, 4*lo, min(4*hi, n)) })
}

// gemmPanel accumulates C[i0:i1, j0:j1] += A[i0:i1, :]·B[:, j0:j1] over
// pre-zeroed C, with k blocked and rows taken in pairs. Hoisting the
// A-row segments as slices lets the compiler keep the pp index
// bounds-check free in the hot loop.
func gemmPanel(a, b, c []float64, k, n, i0, i1, j0, j1 int) {
	for p0 := 0; p0 < k; p0 += gemmBlockK {
		p1 := p0 + gemmBlockK
		if p1 > k {
			p1 = k
		}
		i := i0
		for ; i+2 <= i1; i += 2 {
			c0 := c[(i+0)*n+j0 : (i+0)*n+j1]
			c1 := c[(i+1)*n+j0 : (i+1)*n+j1]
			a0 := a[(i+0)*k+p0 : (i+0)*k+p1]
			a1 := a[(i+1)*k+p0 : (i+1)*k+p1]
			for pp := range a0 {
				v0, v1 := a0[pp], a1[pp]
				if v0 == 0 && v1 == 0 {
					continue
				}
				axpy2(c0, c1, b[(p0+pp)*n+j0:(p0+pp)*n+j1], v0, v1)
			}
		}
		for ; i < i1; i++ {
			crow := c[i*n+j0 : i*n+j1]
			for p := p0; p < p1; p++ {
				av := a[i*k+p]
				if av == 0 {
					continue
				}
				axpy1(crow, b[p*n+j0:p*n+j1], av)
			}
		}
	}
}

// gemmTransAPanel accumulates C[i0:i1, j0:j1] += Aᵀ[i0:i1, :]·B[:, j0:j1]
// with a stored (k×m); the paired row loads a[p·m+i], a[p·m+i+1] are
// adjacent in memory.
func gemmTransAPanel(a, b, c []float64, k, m, n, i0, i1, j0, j1 int) {
	for p0 := 0; p0 < k; p0 += gemmBlockK {
		p1 := p0 + gemmBlockK
		if p1 > k {
			p1 = k
		}
		i := i0
		for ; i+2 <= i1; i += 2 {
			c0 := c[(i+0)*n+j0 : (i+0)*n+j1]
			c1 := c[(i+1)*n+j0 : (i+1)*n+j1]
			for p := p0; p < p1; p++ {
				off := p*m + i
				v0, v1 := a[off], a[off+1]
				if v0 == 0 && v1 == 0 {
					continue
				}
				axpy2(c0, c1, b[p*n+j0:p*n+j1], v0, v1)
			}
		}
		for ; i < i1; i++ {
			crow := c[i*n+j0 : i*n+j1]
			for p := p0; p < p1; p++ {
				av := a[p*m+i]
				if av == 0 {
					continue
				}
				axpy1(crow, b[p*n+j0:p*n+j1], av)
			}
		}
	}
}

// gemmTransBPanel accumulates C[i0:i1, j0:j1] += A[i0:i1, :]·Bᵀ[:, j0:j1]
// with b stored (n×k): both operands stream contiguously, four dot
// products share each loaded element of A.
func gemmTransBPanel(a, b, c []float64, k, n, i0, i1, j0, j1 int) {
	for p0 := 0; p0 < k; p0 += transBBlockK {
		p1 := p0 + transBBlockK
		if p1 > k {
			p1 = k
		}
		for i := i0; i < i1; i++ {
			arow := a[i*k+p0 : i*k+p1]
			crow := c[i*n : (i+1)*n]
			j := j0
			for ; j+4 <= j1; j += 4 {
				b0 := b[(j+0)*k+p0 : (j+0)*k+p1]
				b1 := b[(j+1)*k+p0 : (j+1)*k+p1]
				b2 := b[(j+2)*k+p0 : (j+2)*k+p1]
				b3 := b[(j+3)*k+p0 : (j+3)*k+p1]
				var s0, s1, s2, s3 float64
				for p, av := range arow {
					s0 += av * b0[p]
					s1 += av * b1[p]
					s2 += av * b2[p]
					s3 += av * b3[p]
				}
				crow[j+0] += s0
				crow[j+1] += s1
				crow[j+2] += s2
				crow[j+3] += s3
			}
			for ; j < j1; j++ {
				brow := b[j*k+p0 : j*k+p1]
				s := 0.0
				for p, av := range arow {
					s += av * brow[p]
				}
				crow[j] += s
			}
		}
	}
}

// MatMul computes the matrix product a·b for rank-2 tensors in a fresh
// tensor. Shapes must be (m×k)·(k×n); the result is m×n.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: MatMul requires rank-2 tensors, got %v and %v", a.shape, b.shape)
	}
	out := New(a.shape[0], b.shape[1])
	if err := MatMulInto(a, b, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MustMatMul is MatMul but panics on error.
func MustMatMul(a, b *Tensor) *Tensor {
	t, err := MatMul(a, b)
	if err != nil {
		panic(err)
	}
	return t
}

// MatMulTransA computes aᵀ·b where a is (k×m) and b is (k×n), yielding m×n
// in a fresh tensor.
func MatMulTransA(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: MatMulTransA requires rank-2 tensors, got %v and %v", a.shape, b.shape)
	}
	out := New(a.shape[1], b.shape[1])
	if err := MatMulTransAInto(a, b, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MatMulTransB computes a·bᵀ where a is (m×k) and b is (n×k), yielding m×n
// in a fresh tensor.
func MatMulTransB(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: MatMulTransB requires rank-2 tensors, got %v and %v", a.shape, b.shape)
	}
	out := New(a.shape[0], b.shape[0])
	if err := MatMulTransBInto(a, b, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Transpose2D returns the transpose of a rank-2 tensor.
func Transpose2D(a *Tensor) (*Tensor, error) {
	if a.Rank() != 2 {
		return nil, fmt.Errorf("tensor: Transpose2D requires rank 2, got %v", a.shape)
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out, nil
}

// MatVec computes the matrix-vector product a·x for a (m×n) and x (n),
// yielding a length-m vector.
func MatVec(a, x *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || x.Rank() != 1 {
		return nil, fmt.Errorf("tensor: MatVec requires (2,1) ranks, got %v and %v", a.shape, x.shape)
	}
	m, n := a.shape[0], a.shape[1]
	if x.shape[0] != n {
		return nil, fmt.Errorf("tensor: MatVec dimension mismatch %v vs %v", a.shape, x.shape)
	}
	out := New(m)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		s := 0.0
		for j, v := range row {
			s += v * x.data[j]
		}
		out.data[i] = s
	}
	return out, nil
}
