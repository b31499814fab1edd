package nn

import (
	"math"
	"math/rand"
	"testing"

	"a4nn/internal/tensor"
)

func TestConv2DConstructorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewConv2D(rng, 0, 1, 3, 3, 1, 1); err == nil {
		t.Fatal("expected error for zero input channels")
	}
	if _, err := NewConv2D(rng, 1, 1, 3, 3, 0, 1); err == nil {
		t.Fatal("expected error for zero stride")
	}
	if _, err := NewConv2D(rng, 1, 1, 3, 3, 1, -1); err == nil {
		t.Fatal("expected error for negative pad")
	}
}

func TestConv2DShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv, err := NewConv2D(rng, 3, 8, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := conv.OutShape([]int{3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 8 || out[1] != 32 || out[2] != 32 {
		t.Fatalf("out shape %v", out)
	}
	if _, err := conv.OutShape([]int{4, 32, 32}); err == nil {
		t.Fatal("expected channel-mismatch error")
	}
	x := tensor.Randn(rng, 0, 1, 2, 3, 8, 8)
	y, err := conv.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(0) != 2 || y.Dim(1) != 8 || y.Dim(2) != 8 || y.Dim(3) != 8 {
		t.Fatalf("forward shape %v", y.Shape())
	}
	if _, err := conv.Forward(tensor.Randn(rng, 0, 1, 2, 4, 8, 8), false); err == nil {
		t.Fatal("expected forward channel error")
	}
	if _, err := conv.Backward(y); err == nil {
		t.Fatal("Backward without training Forward must error")
	}
}

// TestConv2DEvalForward pins the two forward modes to each other: an
// evaluation forward (scratch tile only) equals the training forward (which
// also fills the dW cache) bit for bit, cannot stand in for it, and leaves
// the cache of a pending backward pass alone.
func TestConv2DEvalForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	conv, err := NewConv2D(rng, 3, 5, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 5, 3, 7, 6)
	grad := tensor.Randn(rng, 0, 1, 5, 5, 7, 6)

	evalY, err := conv.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	evalY = evalY.Clone()
	if _, err := conv.Backward(grad); err == nil {
		t.Fatal("Backward after an evaluation-only Forward must error")
	}
	trainY, err := conv.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range trainY.Data() {
		if math.Float64bits(v) != math.Float64bits(evalY.Data()[i]) {
			t.Fatalf("element %d: training forward %v, evaluation forward %v", i, v, evalY.Data()[i])
		}
	}
	if _, err := conv.Backward(grad); err != nil {
		t.Fatal(err)
	}
	want := conv.W.Grad.Clone()

	// Same step with an evaluation forward of other data in between.
	conv.W.ZeroGrad()
	if _, err := conv.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	if _, err := conv.Forward(tensor.Randn(rng, 0, 1, 5, 3, 7, 6), false); err != nil {
		t.Fatal(err)
	}
	if _, err := conv.Backward(grad); err != nil {
		t.Fatal(err)
	}
	if !conv.W.Grad.Equal(want, 0) {
		t.Fatal("an evaluation forward changed the weight gradient of the pending backward pass")
	}
}

func TestConv2DBiasApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conv, err := NewConv2D(rng, 1, 1, 1, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	conv.W.Value.Fill(0)
	conv.B.Value.Fill(2.5)
	x := tensor.Ones(1, 1, 3, 3)
	y, err := conv.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range y.Data() {
		if v != 2.5 {
			t.Fatalf("bias not applied: %v", y.Data())
		}
	}
}

func TestDenseValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := NewDense(rng, 0, 2); err == nil {
		t.Fatal("expected error")
	}
	d, err := NewDense(rng, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Forward(tensor.Ones(3, 5), false); err == nil {
		t.Fatal("expected width-mismatch error")
	}
	if _, err := d.OutShape([]int{5}); err == nil {
		t.Fatal("expected OutShape error")
	}
	if d.FLOPs([]int{4}) != int64(2*(2*4+1)) {
		t.Fatalf("dense FLOPs = %d", d.FLOPs([]int{4}))
	}
}

func TestReLUForward(t *testing.T) {
	r := NewReLU()
	x := tensor.MustFromSlice([]float64{-1, 0, 2, -3}, 4)
	y, err := r.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 2, 0}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("relu = %v", y.Data())
		}
	}
	if _, err := r.Backward(y); err == nil {
		t.Fatal("Backward without training Forward must error")
	}
}

// TestReLUSpecialValues pins the branch-free passes bit for bit on the
// inputs where max and a sign test could disagree: both zeros rectify to
// +0 and block the gradient, a denormal and +Inf pass, and a NaN input
// comes out NaN with a zero gradient. Evaluation and training agree.
func TestReLUSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	x := tensor.MustFromSlice([]float64{negZero, 0, math.NaN(), -1, 2, math.Inf(1), math.Inf(-1), 5e-324, -5e-324}, 9)
	wantY := []float64{0, 0, math.NaN(), 0, 2, math.Inf(1), 0, 5e-324, 0}
	grad := tensor.MustFromSlice([]float64{1, -2, 3, 4, -5, negZero, 7, math.Inf(-1), math.NaN()}, 9)
	wantDx := []float64{0, 0, 0, 0, -5, negZero, 0, math.Inf(-1), 0}
	sameBits := func(got, want float64) bool {
		return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
	}
	r := NewReLU()
	for _, train := range []bool{false, true} {
		y, err := r.Forward(x, train)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range wantY {
			if !sameBits(y.Data()[i], want) {
				t.Fatalf("train=%v: relu(%v) = %v, want %v", train, x.Data()[i], y.Data()[i], want)
			}
		}
	}
	dx, err := r.Backward(grad)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range wantDx {
		if !sameBits(dx.Data()[i], want) {
			t.Fatalf("relu'(%v)·%v = %v, want %v", x.Data()[i], grad.Data()[i], dx.Data()[i], want)
		}
	}
}

func TestDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := NewDropout(rng, 1.0); err == nil {
		t.Fatal("p=1 must be rejected")
	}
	d, err := NewDropout(rng, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Ones(1, 10000)
	// Eval mode: identity.
	y, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !y.Equal(x, 0) {
		t.Fatal("eval-mode dropout must be identity")
	}
	// Train mode: mean preserved in expectation, some elements zeroed.
	yt, err := d.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range yt.Data() {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(yt.Len())
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("dropout zeroed %v of elements, want ≈0.5", frac)
	}
	if math.Abs(yt.Mean()-1) > 0.05 {
		t.Fatalf("inverted dropout mean %v, want ≈1", yt.Mean())
	}
	// Backward routes through the same mask.
	g, err := d.Backward(tensor.Ones(1, 10000))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range yt.Data() {
		if (v == 0) != (g.Data()[i] == 0) {
			t.Fatal("dropout backward mask mismatch")
		}
	}
}

func TestMaxPoolForwardKnown(t *testing.T) {
	p, err := NewMaxPool2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y, err := p.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 8, 14, 16}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("maxpool = %v, want %v", y.Data(), want)
		}
	}
	if _, err := NewMaxPool2D(0, 2); err == nil {
		t.Fatal("k=0 must be rejected")
	}
}

func TestBatchNormTrainStats(t *testing.T) {
	bn, err := NewBatchNorm2D(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := tensor.Randn(rng, 3, 2, 8, 2, 4, 4)
	y, err := bn.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	// Per-channel output must be ≈ zero-mean unit-variance (gamma=1, beta=0).
	n, c, spat := 8, 2, 16
	for ch := 0; ch < c; ch++ {
		mean, m2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			for _, v := range y.Data()[(i*c+ch)*spat : (i*c+ch+1)*spat] {
				mean += v
			}
		}
		mean /= float64(n * spat)
		for i := 0; i < n; i++ {
			for _, v := range y.Data()[(i*c+ch)*spat : (i*c+ch+1)*spat] {
				d := v - mean
				m2 += d * d
			}
		}
		variance := m2 / float64(n*spat)
		if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d normalised to mean=%v var=%v", ch, mean, variance)
		}
	}
	// Running stats moved toward the batch stats.
	if bn.RunningMean.At(0) == 0 {
		t.Fatal("running mean not updated")
	}
	if _, err := bn.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchNorm2D(0); err == nil {
		t.Fatal("c=0 must be rejected")
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.MustFromSlice([]float64{
		2, 1, 0,
		0, 3, 1,
		1, 0, 5,
		9, 0, 0,
	}, 4, 3)
	acc, err := Accuracy(logits, []int{0, 1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 75 {
		t.Fatalf("accuracy = %v, want 75", acc)
	}
	if _, err := Accuracy(logits, []int{0}); err == nil {
		t.Fatal("expected label-count error")
	}
}

func TestCrossEntropyValidation(t *testing.T) {
	var ce SoftmaxCrossEntropy
	if _, _, err := ce.Loss(tensor.Ones(4), nil); err == nil {
		t.Fatal("expected rank error")
	}
	if _, _, err := ce.Loss(tensor.Ones(2, 3), []int{0}); err == nil {
		t.Fatal("expected label-count error")
	}
	if _, _, err := ce.Loss(tensor.Ones(2, 3), []int{0, 7}); err == nil {
		t.Fatal("expected label-range error")
	}
}

func TestSGDDecreasesQuadratic(t *testing.T) {
	// Minimise f(w) = ||w||² with hand-set gradients.
	p := newParam("w", tensor.MustFromSlice([]float64{3, -4}, 2))
	opt, err := NewSGD(0.1, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		for j, v := range p.Value.Data() {
			p.Grad.Data()[j] = 2 * v
		}
		opt.Step([]*Param{p})
	}
	if p.Value.Norm2() > 1e-3 {
		t.Fatalf("SGD+momentum did not converge: %v", p.Value.Data())
	}
	if _, err := NewSGD(0, 0, 0); err == nil {
		t.Fatal("lr=0 must be rejected")
	}
	if _, err := NewSGD(0.1, 1.0, 0); err == nil {
		t.Fatal("momentum=1 must be rejected")
	}
}

func TestAdamDecreasesQuadratic(t *testing.T) {
	p := newParam("w", tensor.MustFromSlice([]float64{3, -4}, 2))
	opt, err := NewAdam(0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		for j, v := range p.Value.Data() {
			p.Grad.Data()[j] = 2 * v
		}
		opt.Step([]*Param{p})
	}
	if p.Value.Norm2() > 1e-2 {
		t.Fatalf("Adam did not converge: %v", p.Value.Data())
	}
	if _, err := NewAdam(-1, 0); err == nil {
		t.Fatal("negative lr must be rejected")
	}
}

func TestOptimizerZeroesGrads(t *testing.T) {
	p := newParam("w", tensor.Ones(3))
	p.Grad.Fill(1)
	opt, _ := NewSGD(0.1, 0, 0.01)
	opt.Step([]*Param{p})
	for _, g := range p.Grad.Data() {
		if g != 0 {
			t.Fatal("Step must zero gradients")
		}
	}
}

// buildSmallCNN assembles a conv → bn → relu → pool → flatten → dense net.
func buildSmallCNN(t *testing.T, rng *rand.Rand) *Network {
	t.Helper()
	conv, err := NewConv2D(rng, 1, 4, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := NewBatchNorm2D(4)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDense(rng, 4*4*4, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork("test-cnn", []int{1, 8, 8}, conv, bn, NewReLU(), pool, NewFlatten(), dense)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNetworkShapeAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := buildSmallCNN(t, rng)
	out, err := net.OutShape()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 2 {
		t.Fatalf("out shape %v", out)
	}
	if net.NumParams() == 0 {
		t.Fatal("no parameters found")
	}
	f, err := net.FLOPs()
	if err != nil {
		t.Fatal(err)
	}
	if f <= 0 {
		t.Fatalf("FLOPs = %d", f)
	}
	if net.Describe() == "" {
		t.Fatal("Describe must render")
	}
	// Mismatched composition must be rejected at construction.
	badDense, _ := NewDense(rng, 10, 2)
	if _, err := NewNetwork("bad", []int{1, 8, 8}, badDense); err == nil {
		t.Fatal("invalid composition must error")
	}
}

// TestNetworkLearnsToy verifies the whole stack end to end: a small CNN
// must reach high accuracy on a linearly separable two-class image task.
func TestNetworkLearnsToy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := buildSmallCNN(t, rng)
	opt, err := NewSGD(0.05, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Class 0: bright top half. Class 1: bright bottom half.
	makeBatch := func(n int) Batch {
		x := tensor.New(n, 1, 8, 8)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			cls := rng.Intn(2)
			labels[i] = cls
			for y := 0; y < 8; y++ {
				for xx := 0; xx < 8; xx++ {
					v := rng.NormFloat64() * 0.1
					if (cls == 0 && y < 4) || (cls == 1 && y >= 4) {
						v += 1
					}
					x.Set(v, i, 0, y, xx)
				}
			}
		}
		return Batch{X: x, Labels: labels}
	}
	var train []Batch
	for b := 0; b < 8; b++ {
		train = append(train, makeBatch(16))
	}
	test := []Batch{makeBatch(64)}
	for epoch := 0; epoch < 15; epoch++ {
		if _, err := TrainEpoch(net, opt, train); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := EvaluateClassifier(net, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 95 {
		t.Fatalf("toy accuracy = %v, want ≥95", acc)
	}
}

func TestSaveLoadStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := buildSmallCNN(t, rng)
	x := tensor.Randn(rng, 0, 1, 4, 1, 8, 8)
	// Train one step so batch-norm running stats are non-trivial.
	opt, _ := NewSGD(0.01, 0, 0)
	if _, err := TrainEpoch(net, opt, []Batch{{X: x, Labels: []int{0, 1, 0, 1}}}); err != nil {
		t.Fatal(err)
	}
	before, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	state, err := net.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	// Fresh net with different init must reproduce outputs after load.
	net2 := buildSmallCNN(t, rand.New(rand.NewSource(999)))
	if err := net2.LoadState(state); err != nil {
		t.Fatal(err)
	}
	after, err := net2.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !before.Equal(after, 1e-12) {
		t.Fatal("state round trip changed outputs")
	}
	// Loading into an incompatible net must fail.
	small, _ := NewDense(rand.New(rand.NewSource(1)), 3, 2)
	other, _ := NewNetwork("other", []int{3}, small)
	if err := other.LoadState(state); err == nil {
		t.Fatal("incompatible LoadState must error")
	}
}

func TestTrainEpochValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := buildSmallCNN(t, rng)
	opt, _ := NewSGD(0.1, 0, 0)
	if _, err := TrainEpoch(net, opt, nil); err == nil {
		t.Fatal("no batches must error")
	}
	if _, err := EvaluateClassifier(net, nil); err == nil {
		t.Fatal("no samples must error")
	}
}

func TestAvgPoolForwardKnown(t *testing.T) {
	p, err := NewAvgPool2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y, err := p.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3.5, 5.5, 11.5, 13.5}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("avgpool = %v, want %v", y.Data(), want)
		}
	}
	if _, err := NewAvgPool2D(0, 1); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if p.FLOPs([]int{1, 4, 4}) <= 0 {
		t.Fatal("avgpool FLOPs")
	}
	if _, err := p.Backward(y); err == nil {
		t.Fatal("Backward before training Forward must fail")
	}
}

func TestAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p, err := NewAvgPool2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 2, 2, 6, 6)
	checkInputGradient(t, p, x, 1e-5)
}

func TestAvgPoolClippedWindowGradient(t *testing.T) {
	// 5×5 input with 2×2/s2 pooling clips the last row/column windows.
	rng := rand.New(rand.NewSource(32))
	p, err := NewAvgPool2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 1, 1, 5, 5)
	checkInputGradient(t, p, x, 1e-5)
}

func TestSchedulers(t *testing.T) {
	c := ConstantLR{Base: 0.1}
	if c.LR(1) != 0.1 || c.LR(100) != 0.1 || c.Name() == "" {
		t.Fatal("constant schedule wrong")
	}
	s, err := NewStepLR(0.1, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.LR(1) != 0.1 || s.LR(10) != 0.1 {
		t.Fatalf("step epochs 1-10: %v, %v", s.LR(1), s.LR(10))
	}
	if s.LR(11) != 0.05 || s.LR(21) != 0.025 {
		t.Fatalf("step decay wrong: %v, %v", s.LR(11), s.LR(21))
	}
	if s.LR(0) != 0.1 {
		t.Fatal("epoch<1 must clamp")
	}
	if _, err := NewStepLR(0, 0.5, 10); err == nil {
		t.Fatal("base=0 must fail")
	}
	if _, err := NewStepLR(0.1, 2, 10); err == nil {
		t.Fatal("gamma>1 must fail")
	}

	cos, err := NewCosineLR(0.1, 0.001, 25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cos.LR(1)-0.1) > 1e-12 {
		t.Fatalf("cosine start %v", cos.LR(1))
	}
	if math.Abs(cos.LR(25)-0.001) > 1e-12 {
		t.Fatalf("cosine end %v", cos.LR(25))
	}
	// Monotone non-increasing across the schedule.
	prev := cos.LR(1)
	for e := 2; e <= 25; e++ {
		cur := cos.LR(e)
		if cur > prev+1e-12 {
			t.Fatalf("cosine not monotone at %d: %v > %v", e, cur, prev)
		}
		prev = cur
	}
	if cos.LR(30) != cos.LR(25) {
		t.Fatal("past-end epochs must clamp")
	}
	if _, err := NewCosineLR(0.1, 0.2, 25); err == nil {
		t.Fatal("min>base must fail")
	}
}

func TestOptimizersSetLR(t *testing.T) {
	sgd, _ := NewSGD(0.1, 0, 0)
	var o Optimizer = sgd
	if set, ok := o.(SetLR); !ok {
		t.Fatal("SGD must implement SetLR")
	} else {
		set.SetLR(0.05)
	}
	if sgd.LR != 0.05 {
		t.Fatal("SGD SetLR ineffective")
	}
	adam, _ := NewAdam(0.1, 0)
	var oa Optimizer = adam
	if set, ok := oa.(SetLR); !ok {
		t.Fatal("Adam must implement SetLR")
	} else {
		set.SetLR(0.02)
	}
	if adam.LR != 0.02 {
		t.Fatal("Adam SetLR ineffective")
	}
}

func TestMaxPoolPadded(t *testing.T) {
	p, err := NewMaxPool2DPadded(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3×3/s1/p1 keeps spatial size.
	out, err := p.OutShape([]int{2, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != 8 || out[2] != 8 {
		t.Fatalf("padded pool out %v", out)
	}
	// Known values: negative input — padding must never win the max.
	x := tensor.Full(-2, 1, 1, 3, 3)
	x.Set(-1, 0, 0, 1, 1)
	y, err := p.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range y.Data() {
		if v > -1 || v < -2 {
			t.Fatalf("padding leaked into max: %v", y.Data())
		}
	}
	if _, err := NewMaxPool2DPadded(3, 1, 3); err == nil {
		t.Fatal("pad >= k must be rejected")
	}
}

func TestMaxPoolPaddedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	p, err := NewMaxPool2DPadded(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 2, 2, 5, 5)
	checkInputGradient(t, p, x, 1e-5)
}

func TestAvgPoolPaddedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	p, err := NewAvgPool2DPadded(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.OutShape([]int{2, 6, 6})
	if err != nil || out[1] != 6 || out[2] != 6 {
		t.Fatalf("padded avg pool out %v, %v", out, err)
	}
	x := tensor.Randn(rng, 0, 1, 2, 2, 5, 5)
	checkInputGradient(t, p, x, 1e-5)
	if _, err := NewAvgPool2DPadded(3, 1, 3); err == nil {
		t.Fatal("pad >= k must be rejected")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := newParam("w", tensor.New(2))
	p.Grad.Data()[0], p.Grad.Data()[1] = 3, 4 // norm 5
	if got := ClipGradNorm([]*Param{p}, 2.5); got != 5 {
		t.Fatalf("pre-clip norm %v", got)
	}
	if math.Abs(p.Grad.Data()[0]-1.5) > 1e-12 || math.Abs(p.Grad.Data()[1]-2) > 1e-12 {
		t.Fatalf("clipped grads %v", p.Grad.Data())
	}
	// Below the threshold: untouched.
	p.Grad.Data()[0], p.Grad.Data()[1] = 0.3, 0.4
	ClipGradNorm([]*Param{p}, 2.5)
	if p.Grad.Data()[0] != 0.3 {
		t.Fatal("sub-threshold grads must not change")
	}
	// maxNorm 0 disables.
	p.Grad.Data()[0] = 100
	ClipGradNorm([]*Param{p}, 0)
	if p.Grad.Data()[0] != 100 {
		t.Fatal("maxNorm=0 must disable clipping")
	}
	// Zero gradients are a no-op (no 0/0).
	z := newParam("z", tensor.New(2))
	if got := ClipGradNorm([]*Param{z}, 1); got != 0 {
		t.Fatalf("zero-grad norm %v", got)
	}
}
