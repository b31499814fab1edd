package tensor

import "math"

// The constants of the exponential below are those of Go's amd64 math.Exp
// (math/exp_amd64.s, after Shibata's SLEEF), so Exp reproduces its bits.
const (
	expLog2e    = 1.4426950408889634073599246810018920        // 1/ln 2
	expLn2U     = 0.69314718055966295651160180568695068359375 // upper half of ln 2
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
)

// expTaylor are the Taylor coefficients 1/8! … 1/2!, 1 of e^r for the
// reduced argument r, in the order Horner's rule consumes them.
var expTaylor = [...]float64{
	2.4801587301587301587e-5,
	1.9841269841269841270e-4,
	1.3888888888888888889e-3,
	8.3333333333333333333e-3,
	4.1666666666666666667e-2,
	1.6666666666666666667e-1,
	0.5,
	1.0,
}

// mathExpFused reports whether math.Exp runs the FMA sequence expFMA
// replicates. On amd64 it does when the CPU has AVX and FMA and GODEBUG
// does not turn FMA off; the answer is read off math.Exp itself, so it
// holds whatever decided it.
var mathExpFused = expProbe()

// Exp returns e**x with the bits of the FMA path of Go's amd64 math.Exp
// on every host: it is math.Exp where that takes the path, and the
// pure-Go replica expFMA everywhere else. Results that depend on e**x are
// then the same on an amd64 host with FMA and on one without.
func Exp(x float64) float64 {
	if mathExpFused {
		return math.Exp(x)
	}
	return expFMA(x)
}

// ExpInto overwrites x[i] with Exp(x[i]). Where the host has the vector
// kernel expGroups it runs four lanes at a time, a tail shorter than four
// under a lane mask in the same call; a group with a lane outside
// [-708, 700] (or not finite) goes through Exp: inside that range 2^k is a
// normal number and no lane needs the scalar path's denormal or overflow
// branches.
func ExpInto(x []float64) {
	if !expVector {
		for i, v := range x {
			x[i] = Exp(v)
		}
		return
	}
	for {
		x = x[expGroups(x):]
		if len(x) == 0 {
			return
		}
		n := min(len(x), 4)
		for i, v := range x[:n] {
			x[i] = Exp(v)
		}
		x = x[n:]
	}
}

// expVector selects ExpInto's vector path. expHasKernel reports whether
// the host has one: axpy_amd64.go sets both where the CPU has AVX2 and
// FMA; elsewhere expGroups (exp_other.go) is never called.
var expVector, expHasKernel bool

// UseExpKernel turns ExpInto's vector kernel on (where the host has one)
// or off and reports whether it was on. The bits are the same either way;
// tests use it to pin results on both paths.
func UseExpKernel(on bool) (was bool) {
	was, expVector = expVector, on && expHasKernel
	return was
}

// expFMA is the avxfma path of math/exp_amd64.s in Go: each VFMADD and
// VFNMADD is a math.FMA, every other product and sum is rounded on its
// own (the float64 conversions keep a compiler that fuses multiply-adds
// from merging them), and the non-finite, overflow and denormal branches
// are the assembly's.
func expFMA(x float64) float64 {
	const posInf, negInf = 0x7FF0000000000000, 0xFFF0000000000000
	bits := math.Float64bits(x)
	switch {
	case bits&^(1<<63) >= posInf: // NaN or ±Inf
		if bits == negInf {
			return 0
		}
		return x
	case x > expOverflow:
		return math.Inf(1)
	}
	// CVTSD2SL: round to nearest even; out of range gives math.MinInt32,
	// and x ≤ expOverflow leaves only the negative side out of range.
	k := int32(math.MinInt32)
	if t := math.RoundToEven(float64(expLog2e * x)); t >= math.MinInt32 {
		k = int32(t)
	}
	kf := float64(k)
	r := math.FMA(-kf, expLn2U, x)
	r = math.FMA(-kf, expLn2L, r)
	r = float64(r * 0.0625)
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = math.FMA(p, r, c)
	}
	r = float64(r * p)
	for range 3 {
		r = float64(r * float64(r+2))
	}
	r = math.FMA(r, float64(r+2), 1)

	// r·2^k, with the assembly's ldexp branches.
	e := k + 0x3FF
	switch {
	case e <= 0:
		if e < -52 {
			return 0
		}
		r = float64(r * math.Float64frombits(uint64(e+0x3FE)<<52))
		e = 1
	case e >= 0x7FF:
		return math.Inf(1)
	}
	return float64(r * math.Float64frombits(uint64(e)<<52))
}

// expProbe reports whether math.Exp agrees with expFMA on a ramp of
// arguments where the FMA and the separately rounded sequences differ
// (TestExpProbeDiscriminates checks that they do).
func expProbe() bool {
	for i := range 64 {
		x := -40 + 1.37*float64(i)
		if math.Float64bits(math.Exp(x)) != math.Float64bits(expFMA(x)) {
			return false
		}
	}
	return true
}
