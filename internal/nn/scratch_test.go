package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"a4nn/internal/tensor"
)

// buildReleaseNet builds a network with every layer kind that holds
// workspace buffers; two calls with one seed build identical twins.
func buildReleaseNet(t *testing.T, seed int64) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	conv, err := NewConv2D(rng, 1, 4, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := NewBatchNormReLU(4)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := NewAvgPool2DPadded(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDense(rng, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork("release", []int{1, 8, 8}, conv, bn, avg, pool, NewGlobalAvgPool2D(), dense)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestReleasedNetworkKeepsState: Release returns scratch only. A released
// network saves the state its twin saves, trains on recycled buffers to
// its twin's bits, and refuses a Backward with no Forward after Release.
func TestReleasedNetworkKeepsState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	batches := []Batch{{X: tensor.Randn(rng, 0, 1, 6, 1, 8, 8), Labels: []int{0, 1, 1, 0, 1, 0}}}
	a, b := buildReleaseNet(t, 5), buildReleaseNet(t, 5)
	optA, _ := NewSGD(0.05, 0.9)
	optB, _ := NewSGD(0.05, 0.9)
	for epoch := 1; epoch <= 2; epoch++ {
		lossA, _, err := TrainEpoch(a, optA, batches)
		if err != nil {
			t.Fatal(err)
		}
		lossB, _, err := TrainEpoch(b, optB, batches)
		if err != nil {
			t.Fatal(err)
		}
		a.Release()
		sa, err := a.SaveTraining(optA)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.SaveTraining(optB)
		if err != nil {
			t.Fatal(err)
		}
		if lossA != lossB || !bytes.Equal(sa, sb) {
			t.Fatalf("epoch %d: released network's loss %v and state differ from its twin's (%v)", epoch, lossA, lossB)
		}
	}
	if err := a.Backward(tensor.New(6, 2)); err == nil {
		t.Fatal("Backward after Release without a training Forward must fail")
	}
}

// TestBackwardAccumulatesWeightGrad holds Param.Grad's contract for the
// layers whose weight gradient is a product written straight into it: a
// second Backward adds to the first instead of replacing it.
func TestBackwardAccumulatesWeightGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	conv, err := NewConv2D(rng, 2, 3, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDense(rng, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		layer Layer
		x, g  *tensor.Tensor
	}{
		{conv, tensor.Randn(rng, 0, 1, 2, 2, 5, 5), tensor.Randn(rng, 0, 1, 2, 3, 5, 5)},
		{dense, tensor.Randn(rng, 0, 1, 4, 5), tensor.Randn(rng, 0, 1, 4, 3)},
	} {
		if _, err := c.layer.Forward(c.x, true); err != nil {
			t.Fatal(err)
		}
		w := c.layer.Params()[0]
		if _, err := c.layer.Backward(c.g); err != nil {
			t.Fatal(err)
		}
		once := w.Grad.Clone()
		if _, err := c.layer.Backward(c.g); err != nil {
			t.Fatal(err)
		}
		if !w.Grad.Equal(once.Add(once), 1e-12) {
			t.Errorf("%s: two Backwards left %v in W.Grad, want twice %v", c.layer.Name(), w.Grad, once)
		}
	}
}
