package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// expLo and expHi bound the lanes the vector kernel takes (exp_amd64.s).
const expLo, expHi = -708, 700

// expEdges are the arguments where the exponential changes regime: ±0,
// denormals, the vector kernel's bounds and their neighbours, the
// denormal-result and overflow thresholds, infinities, NaN and huge
// magnitudes (where CVTSD2SL saturates).
var expEdges = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-310, -2.2e-310,
	expLo, math.Nextafter(expLo, -1000), expHi, math.Nextafter(expHi, 1000),
	-745.2, -745.13, -750, 709.78, 709.79, expOverflow, math.Nextafter(expOverflow, 1000),
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xFFF8000000000001),
	1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
}

// expWant is the scalar reference ExpInto is held to. On a host where
// math.Exp takes its FMA path it is also checked against math.Exp.
func expWant(t *testing.T, x float64) uint64 {
	want := math.Float64bits(Exp(x))
	if mathExpFused && math.Float64bits(math.Exp(x)) != want {
		t.Fatalf("Exp(%v) = %v, math.Exp gives %v", x, Exp(x), math.Exp(x))
	}
	return want
}

// expGuard fills the elements around the slice under test. It lies inside
// the vector kernel's range, so a group that read it would still take the
// kernel, and a lane that stored past the slice would overwrite it with
// e^expGuard.
const expGuard = 0.75

// guarded returns n elements with four expGuard elements before and after
// them in the backing array, the slice starting off elements further in.
func guarded(n, off int) (buf, x []float64) {
	buf = make([]float64, 4+off+n+4)
	for i := range buf {
		buf[i] = expGuard
	}
	return buf, buf[4+off : 4+off+n]
}

// checkGuards fails unless every element of buf outside x still holds
// expGuard.
func checkGuards(t *testing.T, buf, x []float64, what string) {
	t.Helper()
	lo := cap(buf) - cap(x)
	for i, v := range buf {
		if (i < lo || i >= lo+len(x)) && v != expGuard {
			t.Fatalf("%s: element %d outside the slice [%d, %d) changed to %v", what, i, lo, lo+len(x), v)
		}
	}
}

// onBothPaths runs f with ExpInto's vector kernel on (where the host has
// one) and off.
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	for _, vec := range []bool{true, false} {
		t.Run(fmt.Sprintf("kernel=%v", vec), func(t *testing.T) {
			defer UseExpKernel(UseExpKernel(vec))
			f(t)
		})
	}
}

// TestExpIntoMatchesScalar holds ExpInto to the per-element Exp bit for
// bit, with the vector kernel and without: every length 0–33 (no group,
// whole groups, and each tail of one to three lanes), slices starting at
// every offset of a 32-byte line, edge values alone and mixed into groups
// of ordinary ones. The four elements on either side of the slice must
// not be touched.
func TestExpIntoMatchesScalar(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for n := 0; n <= 33; n++ {
			for off := 0; off < 4; off++ {
				for trial := 0; trial < 40; trial++ {
					buf, x := guarded(n, off)
					for i := range x {
						x[i] = rng.NormFloat64() * 30
						if trial > 0 && rng.Intn(5) == 0 {
							x[i] = expEdges[rng.Intn(len(expEdges))]
						}
					}
					in := append([]float64(nil), x...)
					ExpInto(x)
					for i, v := range in {
						if got, want := math.Float64bits(x[i]), expWant(t, v); got != want {
							t.Fatalf("n=%d off=%d: ExpInto element %d of %v = %v, Exp gives %v",
								n, off, i, in, x[i], math.Float64frombits(want))
						}
					}
					checkGuards(t, buf, x, fmt.Sprintf("n=%d off=%d", n, off))
				}
			}
		}
		for _, v := range expEdges {
			for n := 1; n <= 5; n++ {
				buf, x := guarded(n, 0)
				for i := range x {
					x[i] = v
				}
				ExpInto(x)
				for i := range x {
					if got, want := math.Float64bits(x[i]), expWant(t, v); got != want {
						t.Fatalf("ExpInto(%d × %v)[%d] = %v, Exp gives %v", n, v, i, x[i], math.Float64frombits(want))
					}
				}
				checkGuards(t, buf, x, fmt.Sprintf("%d × %v", n, v))
			}
		}
	})
}

// TestExpMatchesMathExpDense sweeps the range the engine uses and a few
// thousand random bit patterns: on a host whose math.Exp takes the FMA
// path, Exp, ExpInto and the replica expFMA (which Exp is only on other
// hosts) must agree with it everywhere.
func TestExpMatchesMathExpDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 0, 40000)
	for i := 0; i < 30000; i++ {
		xs = append(xs, rng.Float64()*1500-750)
	}
	for i := 0; i < 10000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	got := append([]float64(nil), xs...)
	ExpInto(got)
	for i, x := range xs {
		want := expWant(t, x)
		if math.Float64bits(got[i]) != want {
			t.Fatalf("ExpInto(%v) = %v, Exp gives %v", x, got[i], math.Float64frombits(want))
		}
		if r := expFMA(x); mathExpFused && math.Float64bits(r) != want {
			t.Fatalf("expFMA(%v) = %v, math.Exp gives %v", x, r, math.Float64frombits(want))
		}
	}
}

// expSeparate is the non-FMA path of math/exp_amd64.s, every product and
// sum rounded on its own, for arguments in [expLo, expHi]: what math.Exp
// computes there on an amd64 host without FMA.
func expSeparate(x float64) float64 {
	k := int32(math.RoundToEven(float64(expLog2e * x)))
	kf := float64(k)
	r := x - float64(kf*expLn2U)
	r = r - float64(kf*expLn2L)
	r = float64(r * 0.0625)
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = float64(p*r) + c
	}
	r = float64(r * p)
	for range 4 {
		r = float64(r * float64(r+2))
	}
	r += 1
	return float64(r * math.Float64frombits(uint64(k+0x3FF)<<52))
}

// TestExpProbeDiscriminates checks that expProbe's ramp tells the two
// amd64 paths apart: some argument on it rounds differently with and
// without FMA, so a math.Exp that takes the separately rounded path is
// never mistaken for the fused one.
func TestExpProbeDiscriminates(t *testing.T) {
	differ := 0
	for i := range 64 {
		x := -40 + 1.37*float64(i)
		if math.Float64bits(expSeparate(x)) != math.Float64bits(expFMA(x)) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the probe ramp cannot tell math.Exp's FMA path from its separately rounded one")
	}
	t.Logf("%d of 64 probe arguments differ; math.Exp fused: %v", differ, mathExpFused)
}

// FuzzExpBits feeds ExpInto arbitrary bit patterns, with the vector
// kernel and without: it must equal the per-element Exp, and math.Exp
// where that takes the FMA path, and leave the four elements on either
// side of the slice as they were.
func FuzzExpBits(f *testing.F) {
	for _, v := range expEdges {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		f.Add(append(b[:], b[:]...))
	}
	f.Add(make([]byte, 8*9))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := make([]float64, len(data)/8)
		for i := range in {
			in[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		for _, vec := range []bool{true, false} {
			was := UseExpKernel(vec)
			buf, x := guarded(len(in), 0)
			copy(x, in)
			ExpInto(x)
			UseExpKernel(was)
			for i, v := range in {
				if got, want := math.Float64bits(x[i]), expWant(t, v); got != want {
					t.Fatalf("kernel=%v: ExpInto(%v)[%d] = %#x, Exp gives %#x", vec, in, i, got, want)
				}
			}
			checkGuards(t, buf, x, fmt.Sprintf("kernel=%v: ExpInto(%v)", vec, in))
		}
	})
}

// BenchmarkExpInto measures the exponential at the lengths the engine
// evaluates (a 3-point history, a 12- and a 13-point one either side of
// a masked tail, the paper's 25 epochs) and a long vector, on the vector
// kernel and on the per-element path.
func BenchmarkExpInto(b *testing.B) {
	for _, n := range []int{3, 12, 13, 25, 1024} {
		for _, vec := range []bool{true, false} {
			name := "scalar"
			if vec {
				name = "vector"
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				defer UseExpKernel(UseExpKernel(vec))
				src := make([]float64, n)
				for i := range src {
					src[i] = -0.35 * float64(i%25)
				}
				x := make([]float64, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(x, src)
					ExpInto(x)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
			})
		}
	}
}
