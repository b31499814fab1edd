package nn

import (
	"math"
	"math/rand"
	"testing"

	"a4nn/internal/tensor"
)

// scalarLoss reduces a tensor to a scalar with fixed random weights so the
// loss depends on every output element; used by the gradient checks.
func scalarLoss(y *tensor.Tensor, w []float64) float64 {
	s := 0.0
	for i, v := range y.Data() {
		s += v * w[i%len(w)]
	}
	return s
}

// lossGrad is ∂scalarLoss/∂y.
func lossGrad(y *tensor.Tensor, w []float64) *tensor.Tensor {
	g := tensor.New(y.Shape()...)
	gd := g.Data()
	for i := range gd {
		gd[i] = w[i%len(w)]
	}
	return g
}

// checkInputGradient numerically verifies ∂loss/∂x for a layer.
func checkInputGradient(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	w := make([]float64, 7)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	y, err := layer.Forward(x, true)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	dx, err := layer.Backward(lossGrad(y, w))
	if err != nil {
		t.Fatalf("backward: %v", err)
	}
	const h = 1e-5
	xd := x.Data()
	for _, i := range sampleIndices(len(xd), 25, rng) {
		orig := xd[i]
		xd[i] = orig + h
		yp, err := layer.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		lp := scalarLoss(yp, w)
		xd[i] = orig - h
		ym, err := layer.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		lm := scalarLoss(ym, w)
		xd[i] = orig
		want := (lp - lm) / (2 * h)
		got := dx.Data()[i]
		if math.Abs(want-got) > tol*math.Max(1, math.Abs(want)) {
			t.Fatalf("input grad [%d]: analytic %v vs numeric %v", i, got, want)
		}
	}
}

// checkParamGradients numerically verifies ∂loss/∂θ for every parameter.
func checkParamGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	w := make([]float64, 7)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	y, err := layer.Forward(x, true)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	if _, err := layer.Backward(lossGrad(y, w)); err != nil {
		t.Fatalf("backward: %v", err)
	}
	const h = 1e-5
	for pi, p := range layer.Params() {
		vd := p.Value.Data()
		for _, i := range sampleIndices(len(vd), 15, rng) {
			orig := vd[i]
			vd[i] = orig + h
			yp, err := layer.Forward(x, true)
			if err != nil {
				t.Fatal(err)
			}
			lp := scalarLoss(yp, w)
			vd[i] = orig - h
			ym, err := layer.Forward(x, true)
			if err != nil {
				t.Fatal(err)
			}
			lm := scalarLoss(ym, w)
			vd[i] = orig
			want := (lp - lm) / (2 * h)
			got := p.Grad.Data()[i]
			if math.Abs(want-got) > tol*math.Max(1, math.Abs(want)) {
				t.Fatalf("param %d (%s) grad [%d]: analytic %v vs numeric %v", pi, p.Name, i, got, want)
			}
		}
	}
}

// sampleIndices returns up to k distinct indices in [0, n).
func sampleIndices(n, k int, rng *rand.Rand) []int {
	if n <= k {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	seen := map[int]bool{}
	var idx []int
	for len(idx) < k {
		i := rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	return idx
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv, err := NewConv2D(rng, 2, 3, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 2, 2, 5, 5)
	checkInputGradient(t, conv, x, 1e-4)
	checkParamGradients(t, conv, x, 1e-4)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conv, err := NewConv2D(rng, 1, 2, 3, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 2, 1, 7, 7)
	checkInputGradient(t, conv, x, 1e-4)
	checkParamGradients(t, conv, x, 1e-4)
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, err := NewDense(rng, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 3, 6)
	checkInputGradient(t, d, x, 1e-5)
	checkParamGradients(t, d, x, 1e-5)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Keep inputs away from the kink at 0 for the numeric check.
	x := tensor.Randn(rng, 0, 1, 4, 9)
	for i, v := range x.Data() {
		if math.Abs(v) < 0.05 {
			x.Data()[i] = v + 0.2
		}
	}
	checkInputGradient(t, NewReLU(), x, 1e-5)
}

// poolCases are the pooling windows the decoders build, as (k, stride,
// pad) over an input side: the 2×2/s2 reduction between stages and the
// micro cell's 3×3/s1 "same" pools (pad 1) on an even and an odd side, so
// every border window layout is checked.
var poolCases = []struct{ k, stride, pad, side int }{
	{2, 2, 0, 6},
	{3, 1, 1, 8},
	{3, 1, 1, 7},
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range poolCases {
		p, err := NewMaxPool2DPadded(c.k, c.stride, c.pad)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.Randn(rng, 0, 1, 2, 3, c.side, c.side)
		checkInputGradient(t, p, x, 1e-5)
	}
}

func TestAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range poolCases {
		p, err := NewAvgPool2DPadded(c.k, c.stride, c.pad)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.Randn(rng, 0, 1, 2, 3, c.side, c.side)
		checkInputGradient(t, p, x, 1e-5)
	}
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.Randn(rng, 0, 1, 3, 4, 5, 5)
	checkInputGradient(t, NewGlobalAvgPool2D(), x, 1e-5)
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn, err := NewBatchNormReLU(3)
	if err != nil {
		t.Fatal(err)
	}
	// Non-trivial gamma/beta so their gradients are exercised.
	bn.Gamma.Value.Data()[1] = 1.7
	bn.Beta.Value.Data()[2] = -0.4
	x := tensor.Randn(rng, 0, 2, 4, 3, 3, 3)
	checkInputGradient(t, bn, x, 1e-3)
	checkParamGradients(t, bn, x, 1e-3)
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := tensor.Randn(rng, 0, 1, 4, 3)
	labels := []int{0, 2, 1, 2}
	var ce SoftmaxCrossEntropy
	loss, grad, err := ce.Loss(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	const h = 1e-6
	ld := logits.Data()
	for i := range ld {
		orig := ld[i]
		ld[i] = orig + h
		lp, _, _ := ce.Loss(logits, labels)
		ld[i] = orig - h
		lm, _, _ := ce.Loss(logits, labels)
		ld[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(want-grad.Data()[i]) > 1e-5 {
			t.Fatalf("CE grad [%d]: analytic %v vs numeric %v", i, grad.Data()[i], want)
		}
	}
}

func TestMSEGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pred := tensor.Randn(rng, 0, 1, 3, 4)
	target := tensor.Randn(rng, 0, 1, 3, 4)
	var mse MSE
	loss, grad, err := mse.Loss(pred, target)
	if err != nil {
		t.Fatal(err)
	}
	if loss < 0 {
		t.Fatalf("loss = %v", loss)
	}
	const h = 1e-6
	pd := pred.Data()
	for i := range pd {
		orig := pd[i]
		pd[i] = orig + h
		lp, _, _ := mse.Loss(pred, target)
		pd[i] = orig - h
		lm, _, _ := mse.Loss(pred, target)
		pd[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(want-grad.Data()[i]) > 1e-5 {
			t.Fatalf("MSE grad [%d]: analytic %v vs numeric %v", i, grad.Data()[i], want)
		}
	}
}
