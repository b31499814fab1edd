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
//     store ports. Both assembly forms of axpy2 (AVX2, four lanes, and
//     AVX-512, eight) keep the two-row shape: a four-row AVX-512 tile
//     measured slower end to end (DESIGN.md, the axpy micro-kernel).
//
// Pairing two rows of A reuses each loaded element of B twice from
// registers, halving the dominant memory traffic of the naive i-p-j loop.
const (
	gemmBlockK = 128
	// transBBlockK is the segment length of the a·bᵀ kernel's dot
	// products: a row pair's two A segments (16 KB) stay in L1 while the
	// rows of B stream past. It is part of the kernel's bits — each
	// segment is summed from zero — so changing it re-associates every
	// product with k > transBBlockK.
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
		gemmPanel(a.data, b.data, dst.data, k, n, n, i0, i1, j0, j1)
	})
	return nil
}

// MatMulTransAAddInto accumulates dst += aᵀ·b with a (k×m), b (k×n), dst
// (m×n), without materialising the transpose, each product term added to
// dst's element in ascending p. dst must not alias a or b. Over a dst of
// +0s the result is bitwise identical to the naive reference, as for
// MatMulInto.
func MatMulTransAAddInto(a, b, dst *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		return fmt.Errorf("tensor: MatMulTransAAddInto requires rank-2 tensors, got %v, %v, %v", a.shape, b.shape, dst.shape)
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: MatMulTransAAddInto inner dimension mismatch %v vs %v", a.shape, b.shape)
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: MatMulTransAAddInto dst shape %v, want [%d %d]", dst.shape, m, n)
	}
	countMatMul(m, n, k)
	gemmParallel(m, n, func(i0, i1, j0, j1 int) {
		gemmTransAPanel(a.data, b.data, dst.data, k, m, n, i0, i1, j0, j1)
	})
	return nil
}

// MatMulTransBInto computes dst = a·bᵀ with a (m×k), b (n×k), dst (m×n),
// overwriting dst, without materialising the transpose. dst must not alias
// a or b. Each element is a dot product accumulated from zero in ascending
// p within each transBBlockK-long segment of k, and the segment sums are
// added to the zeroed element in order: for k ≤ transBBlockK that is the
// naive single-accumulator dot product, beyond it the same sums re-associated
// at the segment boundaries (≪ 1e-12 relative). The bits do not depend on
// the worker count or on which form of the dot kernel runs.
func MatMulTransBInto(a, b, dst *Tensor) error { return matMulTransB(a, b, dst, false) }

// MatMulTransBAddInto is MatMulTransBInto accumulating into dst: dst +=
// a·bᵀ, each segment sum added to dst's element in order. Over a dst of
// +0s it has MatMulTransBInto's bits.
func MatMulTransBAddInto(a, b, dst *Tensor) error { return matMulTransB(a, b, dst, true) }

func matMulTransB(a, b, dst *Tensor, add bool) error {
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
	if !add {
		dst.Zero()
	}
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
// pre-zeroed C (row stride n), with k blocked and rows taken in pairs. Row
// p of B starts at b[p·ldb], so B may be a column slot of a wider matrix.
// Hoisting the A-row segments as slices lets the compiler keep the pp
// index bounds-check free in the hot loop.
func gemmPanel(a, b, c []float64, k, n, ldb, i0, i1, j0, j1 int) {
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
				axpy2(c0, c1, b[(p0+pp)*ldb+j0:(p0+pp)*ldb+j1], v0, v1)
			}
		}
		for ; i < i1; i++ {
			crow := c[i*n+j0 : i*n+j1]
			for p := p0; p < p1; p++ {
				av := a[i*k+p]
				if av == 0 {
					continue
				}
				axpy1(crow, b[p*ldb+j0:p*ldb+j1], av)
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
// with b stored (n×k), segment by segment of k: each element's segment sum
// starts at zero, takes s += a·b in ascending p and is then added to C.
// Rows go to the dot kernels four, then two at a time, a whole column
// quad at a time; the columns past the last quad and an unpaired last row
// take the same sums in Go.
func gemmTransBPanel(a, b, c []float64, k, n, i0, i1, j0, j1 int) {
	jq := j0 + (j1-j0)&^3
	for p0 := 0; p0 < k; p0 += transBBlockK {
		p1 := min(p0+transBBlockK, k)
		arow := func(i int) []float64 { return a[i*k+p0 : i*k+p1] }
		cq := func(i int) []float64 { return c[i*n+j0 : i*n+jq] }
		i := i0
		if jq > j0 {
			bq := b[j0*k+p0:]
			for ; i+4 <= i1; i += 4 {
				dotQuads4(cq(i), cq(i+1), cq(i+2), cq(i+3), arow(i), arow(i+1), arow(i+2), arow(i+3), bq, k)
			}
			for ; i+2 <= i1; i += 2 {
				dotQuads(cq(i), cq(i+1), arow(i), arow(i+1), bq, k)
			}
		}
		for i = i0; i+2 <= i1; i += 2 {
			a0, a1, c0, c1 := arow(i), arow(i+1), c[i*n:(i+1)*n], c[(i+1)*n:(i+2)*n]
			for j := jq; j < j1; j++ {
				brow := b[j*k+p0 : j*k+p1]
				var s0, s1 float64
				for p, bv := range brow {
					s0 += a0[p] * bv
					s1 += a1[p] * bv
				}
				c0[j] += s0
				c1[j] += s1
			}
		}
		if i < i1 {
			a0, c0 := arow(i), c[i*n:(i+1)*n]
			for j := j0; j < j1; j++ {
				brow := b[j*k+p0 : j*k+p1]
				s := 0.0
				for p, av := range a0 {
					s += av * brow[p]
				}
				c0[j] += s
			}
		}
	}
}
