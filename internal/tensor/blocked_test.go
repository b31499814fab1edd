package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// matMulRef is the naive i-p-j reference product. MatMulInto promises
// per-element accumulation order identical to this loop, so the blocked
// kernel must match it bit for bit.
func matMulRef(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		crow := c.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a.data[i*k+p]
			brow := b.data[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

func matMulTransARef(a, b *Tensor) *Tensor {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		crow := c.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a.data[p*m+i]
			brow := b.data[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

func matMulTransBRef(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.data[i*k+p] * b.data[j*k+p]
			}
			c.data[i*n+j] = s
		}
	}
	return c
}

// fillNaN poisons a tensor so the test catches any element the kernel
// under test fails to overwrite.
func fillNaN(t *Tensor) {
	for i := range t.data {
		t.data[i] = math.NaN()
	}
}

func requireBitEqual(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", label, i, got.data[i], want.data[i])
		}
	}
}

func requireClose(t *testing.T, got, want *Tensor, relTol float64, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i := range want.data {
		diff := math.Abs(got.data[i] - want.data[i])
		scale := math.Abs(want.data[i])
		if scale < 1 {
			scale = 1
		}
		if diff > relTol*scale || math.IsNaN(got.data[i]) {
			t.Fatalf("%s: element %d = %v, want %v (|Δ|=%g)", label, i, got.data[i], want.data[i], diff)
		}
	}
}

// bothKernels runs body with the axpy kernels package init selected (the
// assembly on an AVX2 machine) and again with the portable loops forced,
// so every bit-equality matrix below holds for both.
func bothKernels(t *testing.T, body func(t *testing.T)) {
	t.Run("dispatched", body)
	t.Run("portable", func(t *testing.T) {
		old2, old1 := axpy2, axpy1
		axpy2, axpy1 = axpy2Go, axpy1Go
		defer func() { axpy2, axpy1 = old2, old1 }()
		body(t)
	})
}

type gemmShape struct{ m, k, n int }

// gemmSizes exercises the kernel edge cases: tiny products, odd row counts
// that leave a remainder after 2-row pairing, dimensions straddling the
// gemmBlockK boundary, and the short-and-wide shape conv layers produce.
var gemmSizes = []gemmShape{
	{1, 1, 1},
	{3, 5, 7},
	{17, 33, 9},
	{64, 64, 64},
	{5, 129, 300},
	{130, 257, 63},
}

func TestMatMulIntoMatchesNaive(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		for _, sz := range gemmSizes {
			rng := rand.New(rand.NewSource(7))
			a := Randn(rng, 0, 1, sz.m, sz.k)
			b := Randn(rng, 0, 1, sz.k, sz.n)
			want := matMulRef(a, b)
			for _, workers := range []int{1, 8} {
				old := SetMaxWorkers(workers)
				dst := New(sz.m, sz.n)
				fillNaN(dst)
				if err := MatMulInto(a, b, dst); err != nil {
					SetMaxWorkers(old)
					t.Fatal(err)
				}
				SetMaxWorkers(old)
				requireBitEqual(t, dst, want, fmt.Sprintf("MatMulInto %dx%dx%d workers=%d", sz.m, sz.k, sz.n, workers))
			}
		}
	})
}

func TestMatMulTransAIntoMatchesNaive(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		for _, sz := range gemmSizes {
			rng := rand.New(rand.NewSource(8))
			a := Randn(rng, 0, 1, sz.k, sz.m)
			b := Randn(rng, 0, 1, sz.k, sz.n)
			want := matMulTransARef(a, b)
			for _, workers := range []int{1, 8} {
				old := SetMaxWorkers(workers)
				dst := New(sz.m, sz.n)
				fillNaN(dst)
				if err := MatMulTransAInto(a, b, dst); err != nil {
					SetMaxWorkers(old)
					t.Fatal(err)
				}
				SetMaxWorkers(old)
				requireBitEqual(t, dst, want, fmt.Sprintf("MatMulTransAInto %dx%dx%d workers=%d", sz.m, sz.k, sz.n, workers))
			}
		}
	})
}

func TestMatMulTransBIntoMatchesNaive(t *testing.T) {
	// Include k > transBBlockK so the k-blocked partial sums are exercised;
	// re-association there permits a tiny tolerance.
	sizes := append(append([]gemmShape{}, gemmSizes...), gemmShape{6, 1500, 11})
	for _, sz := range sizes {
		rng := rand.New(rand.NewSource(9))
		a := Randn(rng, 0, 1, sz.m, sz.k)
		b := Randn(rng, 0, 1, sz.n, sz.k)
		want := matMulTransBRef(a, b)
		for _, workers := range []int{1, 8} {
			old := SetMaxWorkers(workers)
			dst := New(sz.m, sz.n)
			fillNaN(dst)
			if err := MatMulTransBInto(a, b, dst); err != nil {
				SetMaxWorkers(old)
				t.Fatal(err)
			}
			SetMaxWorkers(old)
			requireClose(t, dst, want, 1e-12, fmt.Sprintf("MatMulTransBInto %dx%dx%d workers=%d", sz.m, sz.k, sz.n, workers))
		}
	}
}

// adversarialShapes sweeps the dimensions that break tiled kernels:
// degenerate products (a dimension of 1), primes that divide no tile, sizes
// that straddle each boundary — the row pair, the a·bᵀ column quad,
// gemmBlockK, transBBlockK, the switch from row to column split at 2, 3 and
// 8 workers — and the products of 4 MFLOP and more that used to leave
// these kernels for the packed path, among them the weight-gradient shape
// of a 4-filter layer that the column split exists for.
var adversarialShapes = []gemmShape{
	// Degenerate: one dimension collapses to a single row/column/term.
	{1, 1, 1},
	{1, 300, 5},
	{1, 7, 1024},
	{33, 1, 300},
	{130, 257, 1},
	{1, 1, 9},
	// Primes.
	{3, 5, 7},
	{31, 37, 41},
	{127, 13, 31},
	// Straddle the row pair and the column quad.
	{5, 20, 3},
	{6, 20, 4},
	{7, 20, 5},
	// Straddle gemmBlockK and transBBlockK.
	{8, gemmBlockK - 1, 12},
	{8, gemmBlockK, 12},
	{8, gemmBlockK + 1, 12},
	{8, 2*gemmBlockK + 1, 12},
	{3, transBBlockK - 1, 9},
	{3, transBBlockK + 1, 9},
	// Wide rows: one axpy call over a thousand columns, and one short of it.
	{3, 9, 1023},
	{3, 9, 1025},
	// Straddle the row/column split (m around 4·workers).
	{7, 32, 40},
	{8, 32, 40},
	{11, 32, 40},
	{12, 32, 40},
	{31, 32, 40},
	{32, 32, 40},
	// 4 MFLOP and more.
	{128, 128, 128},
	{130, 257, 63},
	{33, 1500, 70},
	{8, 2048, 150},
	{4, 8192, 36},
}

// TestBlockedAdversarialShapes holds every shape above, every variant,
// both kernels and 1, 2, 3 and 8 workers to the naive reference: a·b and
// aᵀ·b bit for bit, a·bᵀ bit for bit while k fits one transBBlockK segment
// and within its documented 1e-12 beyond, and at every worker count bit
// for bit the serial result.
func TestBlockedAdversarialShapes(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		for _, sz := range adversarialShapes {
			rng := rand.New(rand.NewSource(int64(sz.m*1000003 + sz.k*1009 + sz.n)))
			a := Randn(rng, 0, 1, sz.m, sz.k)
			b := Randn(rng, 0, 1, sz.k, sz.n)
			at, _ := Transpose2D(a)
			bt, _ := Transpose2D(b)
			want := matMulRef(a, b)
			variants := []struct {
				name string
				run  func(dst *Tensor) error
			}{
				{"MatMulInto", func(dst *Tensor) error { return MatMulInto(a, b, dst) }},
				{"MatMulTransAInto", func(dst *Tensor) error { return MatMulTransAInto(at, b, dst) }},
				{"MatMulTransBInto", func(dst *Tensor) error { return MatMulTransBInto(a, bt, dst) }},
			}
			for _, v := range variants {
				var serial *Tensor
				for _, workers := range []int{1, 2, 3, 8} {
					label := fmt.Sprintf("%s %dx%dx%d workers=%d", v.name, sz.m, sz.k, sz.n, workers)
					old := SetMaxWorkers(workers)
					dst := New(sz.m, sz.n)
					fillNaN(dst)
					err := v.run(dst)
					SetMaxWorkers(old)
					if err != nil {
						t.Fatal(err)
					}
					if serial == nil {
						serial = dst
					}
					requireBitEqual(t, dst, serial, label+" against workers=1")
					if v.name == "MatMulTransBInto" && sz.k > transBBlockK {
						requireClose(t, dst, want, 1e-12, label)
					} else {
						requireBitEqual(t, dst, want, label)
					}
				}
			}
		}
	})
}

// TestMatMulIntoWorkerInvariance pins the bitwise-reproducibility claim
// directly: the same product under 1 and 8 workers is identical.
func TestMatMulIntoWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := Randn(rng, 0, 1, 97, 143)
	b := Randn(rng, 0, 1, 143, 301)
	run := func(workers int) *Tensor {
		old := SetMaxWorkers(workers)
		defer SetMaxWorkers(old)
		dst := New(97, 301)
		fillNaN(dst)
		if err := MatMulInto(a, b, dst); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	requireBitEqual(t, run(8), run(1), "MatMulInto workers=8 vs workers=1")
}

func TestIm2ColBatchIntoMatchesReference(t *testing.T) {
	cases := []struct{ n, c, h, w, kh, kw, stride, pad int }{
		{1, 1, 4, 4, 3, 3, 1, 1},
		{3, 2, 7, 5, 3, 3, 2, 1},
		{5, 4, 9, 9, 5, 5, 1, 2},
		{4, 3, 8, 8, 2, 2, 2, 0},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(11))
		x := Randn(rng, 0, 1, tc.n, tc.c, tc.h, tc.w)
		oh, err := ConvOutSize(tc.h, tc.kh, tc.stride, tc.pad)
		if err != nil {
			t.Fatal(err)
		}
		ow, err := ConvOutSize(tc.w, tc.kw, tc.stride, tc.pad)
		if err != nil {
			t.Fatal(err)
		}
		ckk, spat := tc.c*tc.kh*tc.kw, oh*ow
		sampleLen := tc.c * tc.h * tc.w

		// Reference: per-sample Im2Col copied into the strided batch layout.
		want := New(ckk, tc.n*spat)
		for s := 0; s < tc.n; s++ {
			sub := MustFromSlice(x.Data()[s*sampleLen:(s+1)*sampleLen], tc.c, tc.h, tc.w)
			sc, err := Im2Col(sub, tc.kh, tc.kw, tc.stride, tc.pad)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < ckk; r++ {
				copy(want.data[r*tc.n*spat+s*spat:r*tc.n*spat+(s+1)*spat], sc.data[r*spat:(r+1)*spat])
			}
		}

		for _, workers := range []int{1, 8} {
			old := SetMaxWorkers(workers)
			cols := New(ckk, tc.n*spat)
			fillNaN(cols)
			if err := Im2ColBatchInto(x, cols, tc.kh, tc.kw, tc.stride, tc.pad); err != nil {
				SetMaxWorkers(old)
				t.Fatal(err)
			}
			SetMaxWorkers(old)
			requireBitEqual(t, cols, want, fmt.Sprintf("Im2ColBatchInto %+v workers=%d", tc, workers))
		}
	}
}

func TestWorkspaceGetPut(t *testing.T) {
	w := NewWorkspace()
	a := w.Get(3, 5)
	if a.Dim(0) != 3 || a.Dim(1) != 5 || a.Len() != 15 {
		t.Fatalf("Get(3,5) shape %v len %d", a.Shape(), a.Len())
	}
	if cap(a.data) < 15 {
		t.Fatalf("Get(3,5) cap %d < 15", cap(a.data))
	}
	w.Put(a)
	if a.data != nil || a.shape != nil {
		t.Fatalf("Put did not detach storage: data=%v shape=%v", a.data, a.shape)
	}
	w.Put(nil) // must not panic

	z := w.GetZeroed(4, 4)
	for i, v := range z.data {
		if v != 0 {
			t.Fatalf("GetZeroed element %d = %v", i, v)
		}
	}
}

func TestWorkspaceObtainReusesInPlace(t *testing.T) {
	w := NewWorkspace()
	a := w.Get(8, 8)
	backing := &a.data[0]
	// Same element count, different shape: must reuse in place.
	b := w.Obtain(a, 4, 16)
	if b != a || &b.data[0] != backing {
		t.Fatal("Obtain with fitting capacity did not reuse storage in place")
	}
	if b.Dim(0) != 4 || b.Dim(1) != 16 {
		t.Fatalf("Obtain reshaped to %v, want [4 16]", b.Shape())
	}
	// Smaller: still in place.
	c := w.Obtain(b, 2, 3)
	if c != b || c.Len() != 6 {
		t.Fatalf("Obtain shrink: reused=%v len=%d", c == b, c.Len())
	}
	// Larger than capacity: old storage is recycled, new buffer returned.
	d := w.Obtain(c, 1024)
	if d.Len() != 1024 || cap(d.data) < 1024 {
		t.Fatalf("Obtain grow: len=%d cap=%d", d.Len(), cap(d.data))
	}
	// Obtain(nil) behaves like Get.
	e := w.Obtain(nil, 2, 2)
	if e.Len() != 4 {
		t.Fatalf("Obtain(nil) len %d", e.Len())
	}
}

func TestWorkspaceSizeClasses(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	} {
		if got := sizeClassCeil(tc.n); got != tc.class {
			t.Errorf("sizeClassCeil(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
	for _, tc := range []struct{ c, class int }{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {1024, 10}, {1536, 10},
	} {
		if got := sizeClassFloor(tc.c); got != tc.class {
			t.Errorf("sizeClassFloor(%d) = %d, want %d", tc.c, got, tc.class)
		}
	}
	// The invariant that makes Put→Get safe: a buffer Put into its floor
	// class always satisfies any request whose ceil class maps there.
	w := NewWorkspace()
	t1 := w.Get(100) // class ceil(log2 100) = 7, cap 128
	w.Put(t1)
	t2 := w.Get(128) // also class 7; pooled buffer must fit
	if t2.Len() != 128 {
		t.Fatalf("pooled reuse: len %d", t2.Len())
	}
}
