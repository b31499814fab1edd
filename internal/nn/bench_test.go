package nn

import (
	"math/rand"
	"testing"

	"a4nn/internal/tensor"
)

// benchConvNet builds a small conv net representative of the genome-decoded
// architectures (conv-bn-relu-pool-conv-relu-gap-dense) plus one training
// batch, for the train-step benchmark.
func benchConvNet(b *testing.B) (*Network, []Batch) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	conv1, err := NewConv2D(rng, 3, 8, 3, 3, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	bn, err := NewBatchNormReLU(8)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := NewMaxPool2D(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	conv2, err := NewConv2D(rng, 8, 16, 3, 3, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	dense, err := NewDense(rng, 16, 10)
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewNetwork("bench", []int{3, 16, 16},
		conv1, bn, pool, conv2, NewReLU(), NewGlobalAvgPool2D(), dense)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 16, 3, 16, 16)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return net, []Batch{{X: x, Labels: labels}}
}

// BenchmarkConvForwardBackward measures one training forward/backward pair
// through a lone convolution, the dominant kernel of every decoded network.
func BenchmarkConvForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	conv, err := NewConv2D(rng, 3, 16, 3, 3, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 8, 3, 32, 32)
	grad := tensor.Ones(8, 16, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y, err := conv.Forward(x, true)
		if err != nil {
			b.Fatal(err)
		}
		_ = y
		if _, err := conv.Backward(grad); err != nil {
			b.Fatal(err)
		}
		conv.W.ZeroGrad()
		conv.B.ZeroGrad()
	}
}

// BenchmarkTrainStep measures one full optimisation step (forward, loss,
// backward, SGD update) on the representative conv net — the unit of work
// every NAS candidate evaluation repeats thousands of times.
func BenchmarkTrainStep(b *testing.B) {
	net, batches := benchConvNet(b)
	opt, err := NewSGD(0.01, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := TrainEpoch(net, opt, batches); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchNormReLU measures one training forward/backward pair
// through the fused batch norm + ReLU at a search's activation shape: a
// 32-sample batch of 8 channels at 16×16.
func BenchmarkBatchNormReLU(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	bn, err := NewBatchNormReLU(8)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 32, 8, 16, 16)
	grad := tensor.Randn(rng, 0, 1, 32, 8, 16, 16)
	step := func() {
		if _, err := bn.Forward(x, true); err != nil {
			b.Fatal(err)
		}
		if _, err := bn.Backward(grad); err != nil {
			b.Fatal(err)
		}
	}
	step() // the layer's buffers come from the workspace once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
