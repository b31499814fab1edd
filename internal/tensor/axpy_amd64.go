package tensor

import "slices"

//go:noescape
func axpy2AVX2(c0, c1, b []float64, v0, v1 float64)

//go:noescape
func axpy1AVX2(c, b []float64, v float64)

//go:noescape
func dotQuadsAsm(c0, c1, a0, a1, b []float64, ldb int)

//go:noescape
func axpy2AVX512(c0, c1, b []float64, v0, v1 float64)

//go:noescape
func axpy1AVX512(c, b []float64, v float64)

//go:noescape
func dotOctetsAsm(c0, c1, a0, a1, b []float64, ldb int)

//go:noescape
func dotOctets4Asm(c0, c1, c2, c3, a0, a1, a2, a3, b []float64, ldb int)

// dotQuadsLen checks the bounds the dot assembly trusts, once per call,
// and returns how many elements of c0 it covers: its whole quads.
func dotQuadsLen(c0, c1, a0, a1, b []float64, ldb int) int {
	nc, l := len(c0)&^3, len(a0)
	if nc == 0 {
		return 0
	}
	if l > ldb {
		panic("tensor: dotQuads rows overlap")
	}
	_, _ = c1[nc-1], a1[:l]
	if l > 0 {
		_ = b[(nc-1)*ldb+l-1]
	}
	return nc
}

// dotQuadsAVX2 is dotQuadsGo in AVX2 assembly.
func dotQuadsAVX2(c0, c1, a0, a1, b []float64, ldb int) {
	if nc := dotQuadsLen(c0, c1, a0, a1, b, ldb); nc > 0 {
		dotQuadsAsm(c0[:nc], c1, a0, a1, b, ldb)
	}
}

// dotQuadsAVX512 is dotQuadsGo in AVX-512 assembly: whole octets of b's
// rows eight lanes wide, then a last single quad, if any, through the AVX2
// form.
func dotQuadsAVX512(c0, c1, a0, a1, b []float64, ldb int) {
	nc := dotQuadsLen(c0, c1, a0, a1, b, ldb)
	no := nc &^ 7
	if no > 0 {
		dotOctetsAsm(c0[:no], c1, a0, a1, b, ldb)
	}
	if nc > no {
		dotQuadsAsm(c0[no:nc], c1[no:], a0, a1, b[min(no*ldb, len(b)):], ldb)
	}
}

// dotQuads4AVX512 is dotQuadsAVX512 for four rows of a at once, which
// share the octets' column vectors.
func dotQuads4AVX512(c0, c1, c2, c3, a0, a1, a2, a3, b []float64, ldb int) {
	nc := dotQuadsLen(c0, c1, a0, a1, b, ldb)
	if nc == 0 {
		return
	}
	_, _, _, _ = c2[nc-1], c3[nc-1], a2[:len(a0)], a3[:len(a0)]
	no := nc &^ 7
	if no > 0 {
		dotOctets4Asm(c0[:no], c1, c2, c3, a0, a1, a2, a3, b, ldb)
	}
	if nc > no {
		bq := b[min(no*ldb, len(b)):]
		dotQuadsAsm(c0[no:nc], c1[no:], a0, a1, bq, ldb)
		dotQuadsAsm(c2[no:nc], c3[no:], a2, a3, bq, ldb)
	}
}

// cpuFeatures reports whether the CPU and the OS support AVX2, FMA and
// AVX-512F.
func cpuFeatures() (avx2, fma, avx512 bool)

func init() {
	avx2, fma, avx512 := cpuFeatures()
	if avx2 {
		kernelSets = slices.Insert(kernelSets, 0,
			gemmKernels{"avx2", axpy2AVX2, axpy1AVX2, dotQuadsAVX2, dotPairs(dotQuadsAVX2)})
		if avx512 {
			kernelSets = slices.Insert(kernelSets, 0,
				gemmKernels{"avx512", axpy2AVX512, axpy1AVX512, dotQuadsAVX512, dotQuads4AVX512})
		}
	}
	useKernels(kernelSets[0])
	if avx2 && fma {
		expVector, expHasKernel = true, true
	}
}
