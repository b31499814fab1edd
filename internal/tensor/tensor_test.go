package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 || x.Len() != 24 {
		t.Fatalf("got rank=%d len=%d, want 3, 24", x.Rank(), x.Len())
	}
	if x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad dims %v", x.Shape())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dimension")
		}
	}()
	New(2, -1)
}

func TestOnesAndFull(t *testing.T) {
	if got := Ones(3).Sum(); got != 3 {
		t.Fatalf("Ones sum = %v, want 3", got)
	}
	if got := Full(2.5, 4).Sum(); got != 10 {
		t.Fatalf("Full sum = %v, want 10", got)
	}
}

func TestFromSlice(t *testing.T) {
	x, err := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if x.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", x.At(1, 2))
	}
	if _, err := FromSlice([]float64{1, 2}, 3); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := FromSlice(nil, -2); err == nil {
		t.Fatal("expected negative-dim error")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if x.At(2, 1) != 7.5 {
		t.Fatalf("At after Set = %v", x.At(2, 1))
	}
	if x.Data()[2*4+1] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshape(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y, err := x.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(2, 1) != 6 {
		t.Fatalf("reshape changed data: %v", y.Data())
	}
	// Views share data.
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("Reshape must return a view")
	}
	if _, err := x.Reshape(4, 2); err == nil {
		t.Fatal("expected element-count error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := Ones(4)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestArithmetic(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3}, 3)
	b := MustFromSlice([]float64{4, 5, 6}, 3)
	if got := a.Add(b).Data(); got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a).Data(); got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Mul(b).Data(); got[1] != 10 {
		t.Fatalf("Mul = %v", got)
	}
	if got := a.Scale(2).Data(); got[2] != 6 {
		t.Fatalf("Scale = %v", got)
	}
	a.AddScaled(b, 10)
	if a.At(0) != 41 {
		t.Fatalf("AddScaled = %v", a.Data())
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Ones(2).Add(Ones(3))
}

func TestReductions(t *testing.T) {
	x := MustFromSlice([]float64{3, -1, 4, 1, -5, 9}, 6)
	if x.Sum() != 11 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if math.Abs(x.Mean()-11.0/6) > 1e-12 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.Max() != 9 || x.Min() != -5 {
		t.Fatalf("Max/Min = %v/%v", x.Max(), x.Min())
	}
	if x.Argmax() != 5 {
		t.Fatalf("Argmax = %d", x.Argmax())
	}
	want := math.Sqrt(9 + 1 + 16 + 1 + 25 + 81)
	if math.Abs(x.Norm2()-want) > 1e-12 {
		t.Fatalf("Norm2 = %v, want %v", x.Norm2(), want)
	}
}

func TestApply(t *testing.T) {
	x := MustFromSlice([]float64{-1, 2}, 2)
	y := x.Apply(math.Abs)
	if y.At(0) != 1 || x.At(0) != -1 {
		t.Fatal("Apply must not mutate the receiver")
	}
	x.ApplyInPlace(func(v float64) float64 { return v * v })
	if x.At(0) != 1 || x.At(1) != 4 {
		t.Fatalf("ApplyInPlace = %v", x.Data())
	}
}

func TestRandomConstructorsDeterministic(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(7)), 0, 1, 100)
	b := Randn(rand.New(rand.NewSource(7)), 0, 1, 100)
	if !a.Equal(b, 0) {
		t.Fatal("Randn must be deterministic given a seed")
	}
	u := Uniform(rand.New(rand.NewSource(7)), 2, 3, 1000)
	if u.Min() < 2 || u.Max() >= 3 {
		t.Fatalf("Uniform out of range [%v,%v)", u.Min(), u.Max())
	}
}

func TestMatMulSmall(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data()[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulErrors(t *testing.T) {
	if _, err := MatMul(Ones(2, 3), Ones(2, 3)); err == nil {
		t.Fatal("expected inner-dimension error")
	}
	if _, err := MatMul(Ones(6), Ones(2, 3)); err == nil {
		t.Fatal("expected rank error")
	}
}

// TestMatMulTransposedAgreement checks MatMulTransA/B against explicit
// transposition for random matrices.
func TestMatMulTransposedAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 0, 1, 5, 7) // k×m for TransA
	b := Randn(rng, 0, 1, 5, 4) // k×n
	c := Randn(rng, 0, 1, 6, 7) // m×k for TransB
	d := Randn(rng, 0, 1, 9, 7) // n×k

	at, _ := Transpose2D(a)
	want, _ := MatMul(at, b)
	got, err := MatMulTransA(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-12) {
		t.Fatal("MatMulTransA disagrees with explicit transpose")
	}

	dt, _ := Transpose2D(d)
	want2, _ := MatMul(c, dt)
	got2, err := MatMulTransB(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(want2, 1e-12) {
		t.Fatal("MatMulTransB disagrees with explicit transpose")
	}
}

func TestMatVec(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	x := MustFromSlice([]float64{1, -1}, 2)
	y, err := MatVec(a, x)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(0) != -1 || y.At(1) != -1 {
		t.Fatalf("MatVec = %v", y.Data())
	}
	if _, err := MatVec(a, Ones(3)); err == nil {
		t.Fatal("expected dimension error")
	}
}

// TestMatMulParallelMatchesSerial verifies the parallel kernel against a
// single-worker run on a larger matrix.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 0, 1, 64, 48)
	b := Randn(rng, 0, 1, 48, 32)
	par := MustMatMul(a, b)
	old := SetMaxWorkers(1)
	ser := MustMatMul(a, b)
	SetMaxWorkers(old)
	if !par.Equal(ser, 1e-12) {
		t.Fatal("parallel MatMul disagrees with serial")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random shapes.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, k, n)
		ab := MustMatMul(a, b)
		abT, _ := Transpose2D(ab)
		bT, _ := Transpose2D(b)
		aT, _ := Transpose2D(a)
		want := MustMatMul(bT, aT)
		return abT.Equal(want, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConvOutSize(t *testing.T) {
	got, err := ConvOutSize(32, 3, 1, 1)
	if err != nil || got != 32 {
		t.Fatalf("ConvOutSize(32,3,1,1) = %d, %v", got, err)
	}
	got, err = ConvOutSize(32, 2, 2, 0)
	if err != nil || got != 16 {
		t.Fatalf("ConvOutSize(32,2,2,0) = %d, %v", got, err)
	}
	if _, err := ConvOutSize(2, 5, 1, 0); err == nil {
		t.Fatal("expected geometry error")
	}
	if _, err := ConvOutSize(8, 3, 0, 0); err == nil {
		t.Fatal("expected stride error")
	}
}

// naiveConv computes a direct convolution for cross-checking Im2Col.
func naiveConv(x *Tensor, w *Tensor, stride, pad int) *Tensor {
	c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2)
	f, _, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	oh, _ := ConvOutSize(h, kh, stride, pad)
	ow, _ := ConvOutSize(wd, kw, stride, pad)
	out := New(f, oh, ow)
	for fi := 0; fi < f; fi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := 0.0
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
							if iy < 0 || iy >= h || ix < 0 || ix >= wd {
								continue
							}
							s += x.At(ch, iy, ix) * w.At(fi, ch, ky, kx)
						}
					}
				}
				out.Set(s, fi, oy, ox)
			}
		}
	}
	return out
}

// TestIm2ColConvolutionEquivalence: filter-matrix × im2col == direct conv.
func TestIm2ColConvolutionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ c, h, w, f, k, stride, pad int }{
		{1, 5, 5, 2, 3, 1, 1},
		{3, 8, 8, 4, 3, 1, 1},
		{2, 7, 9, 3, 3, 2, 0},
		{2, 6, 6, 1, 2, 2, 0},
	} {
		x := Randn(rng, 0, 1, tc.c, tc.h, tc.w)
		w := Randn(rng, 0, 1, tc.f, tc.c, tc.k, tc.k)
		cols, err := Im2Col(x, tc.k, tc.k, tc.stride, tc.pad)
		if err != nil {
			t.Fatal(err)
		}
		wm := w.MustReshape(tc.f, tc.c*tc.k*tc.k)
		got := MustMatMul(wm, cols)
		oh, _ := ConvOutSize(tc.h, tc.k, tc.stride, tc.pad)
		ow, _ := ConvOutSize(tc.w, tc.k, tc.stride, tc.pad)
		want := naiveConv(x, w, tc.stride, tc.pad).MustReshape(tc.f, oh*ow)
		if !got.Equal(want, 1e-10) {
			t.Fatalf("im2col conv disagrees with naive conv for %+v", tc)
		}
	}
}

// TestCol2ImAdjoint verifies <Im2Col(x), y> == <x, Col2Im(y)>, the defining
// property of an adjoint pair, for random tensors.
func TestCol2ImAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, h, w, k, stride, pad := 2, 6, 7, 3, 2, 1
	x := Randn(rng, 0, 1, c, h, w)
	cols, err := Im2Col(x, k, k, stride, pad)
	if err != nil {
		t.Fatal(err)
	}
	y := Randn(rng, 0, 1, cols.Dim(0), cols.Dim(1))
	back, err := Col2Im(y, c, h, w, k, k, stride, pad)
	if err != nil {
		t.Fatal(err)
	}
	lhs := 0.0
	for i, v := range cols.Data() {
		lhs += v * y.Data()[i]
	}
	rhs := 0.0
	for i, v := range x.Data() {
		rhs += v * back.Data()[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestCol2ImShapeError(t *testing.T) {
	if _, err := Col2Im(Ones(3, 3), 1, 4, 4, 2, 2, 1, 0); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestEqualAndString(t *testing.T) {
	a := Ones(2, 2)
	b := Ones(2, 2)
	b.Set(1.05, 0, 0)
	if a.Equal(b, 0.01) {
		t.Fatal("Equal with tight tol should fail")
	}
	if !a.Equal(b, 0.1) {
		t.Fatal("Equal with loose tol should pass")
	}
	if a.Equal(Ones(4), 1) {
		t.Fatal("Equal must require same shape")
	}
	if s := a.String(); s == "" {
		t.Fatal("String should be non-empty")
	}
	if s := Ones(100).String(); s == "" {
		t.Fatal("summary String should be non-empty")
	}
}

func TestParallelForEdgeCases(t *testing.T) {
	ran := false
	parallelFor(0, func(lo, hi int) { ran = true })
	if ran {
		t.Fatal("parallelFor(0) must not invoke body")
	}
	sum := make([]int, 10000)
	parallelFor(len(sum), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum[i] = i
		}
	})
	for i, v := range sum {
		if v != i {
			t.Fatalf("parallelFor missed index %d", i)
		}
	}
}
