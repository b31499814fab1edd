package tensor

import "fmt"

// axpy2 and axpy1 are the inner loops of the GEMM kernels: one row of B
// scaled into two rows of C (or one, for the unpaired last row); dotQuads
// and dotQuads4 are the inner loops of the a·bᵀ kernel, for two and four
// rows of A. Package init points them at the first of kernelSets, the
// fastest set the host runs: the portable loops below unless
// axpy_amd64.go found AVX2 or AVX-512F and put the assembly ahead of them.
// Every set produces the same bits.
var (
	axpy2     = axpy2Go
	axpy1     = axpy1Go
	dotQuads  = dotQuadsGo
	dotQuads4 = dotPairs(dotQuadsGo)
	kernelSet = "go"
)

// gemmKernels is one named set of the inner loops.
type gemmKernels struct {
	name      string
	axpy2     func(c0, c1, b []float64, v0, v1 float64)
	axpy1     func(c, b []float64, v float64)
	dotQuads  func(c0, c1, a0, a1, b []float64, ldb int)
	dotQuads4 func(c0, c1, c2, c3, a0, a1, a2, a3, b []float64, ldb int)
}

// kernelSets lists the sets this host can run, fastest first; the
// portable loops run everywhere and come last.
var kernelSets = []gemmKernels{{"go", axpy2Go, axpy1Go, dotQuadsGo, dotQuads4}}

// dotPairs is dotQuads4 for a set whose dot kernel takes two rows of A:
// the rows in two pairs.
func dotPairs(dot func(c0, c1, a0, a1, b []float64, ldb int)) func(c0, c1, c2, c3, a0, a1, a2, a3, b []float64, ldb int) {
	return func(c0, c1, c2, c3, a0, a1, a2, a3, b []float64, ldb int) {
		dot(c0, c1, a0, a1, b, ldb)
		dot(c2, c3, a2, a3, b, ldb)
	}
}

func useKernels(k gemmKernels) {
	axpy2, axpy1, kernelSet = k.axpy2, k.axpy1, k.name
	dotQuads, dotQuads4 = k.dotQuads, k.dotQuads4
}

// UseGEMMKernels selects the set of GEMM inner loops named set ("avx512",
// "avx2" or "go") and reports the name of the set it replaces. It refuses
// a set the host cannot run, with an error and no change. The bits are
// the same with every set; tests use it to pin results on each. It is not
// safe to call while kernels run.
func UseGEMMKernels(set string) (was string, err error) {
	for _, k := range kernelSets {
		if k.name == set {
			was = kernelSet
			useKernels(k)
			return was, nil
		}
	}
	return kernelSet, fmt.Errorf("tensor: this host has no %q GEMM kernels", set)
}

// axpy2Go computes c0[j] += v0·b[j] and c1[j] += v1·b[j] for every j in b.
func axpy2Go(c0, c1, b []float64, v0, v1 float64) {
	c0, c1 = c0[:len(b)], c1[:len(b)]
	for j, bv := range b {
		c0[j] += v0 * bv
		c1[j] += v1 * bv
	}
}

// axpy1Go computes c[j] += v·b[j] for every j in b.
func axpy1Go(c, b []float64, v float64) {
	c = c[:len(b)]
	for j, bv := range b {
		c[j] += v * bv
	}
}

// dotQuadsGo adds to c0[q] and c1[q], for every q < len(c0) (a multiple of
// four, at most len(c1)), the dot products of a0 and of a1 with row q of b,
// rows being ldb elements apart: each sum starts at zero and takes
// s += a·b in ascending p, a rounded product and a rounded add. Two rows
// by a column quad keep eight independent sums in registers.
func dotQuadsGo(c0, c1, a0, a1, b []float64, ldb int) {
	a1 = a1[:len(a0)]
	for q := 0; q+4 <= len(c0); q += 4 {
		b0 := b[(q+0)*ldb:][:len(a0)]
		b1 := b[(q+1)*ldb:][:len(a0)]
		b2 := b[(q+2)*ldb:][:len(a0)]
		b3 := b[(q+3)*ldb:][:len(a0)]
		var s00, s01, s02, s03, s10, s11, s12, s13 float64
		for p, u := range a0 {
			v := a1[p]
			s00 += u * b0[p]
			s01 += u * b1[p]
			s02 += u * b2[p]
			s03 += u * b3[p]
			s10 += v * b0[p]
			s11 += v * b1[p]
			s12 += v * b2[p]
			s13 += v * b3[p]
		}
		c0[q+0] += s00
		c0[q+1] += s01
		c0[q+2] += s02
		c0[q+3] += s03
		c1[q+0] += s10
		c1[q+1] += s11
		c1[q+2] += s12
		c1[q+3] += s13
	}
}
