// Package nn is a from-scratch neural-network training engine: layers
// (convolution, dense, pooling, batch normalisation), losses, SGD with
// momentum, and a Network container with forward/backward passes,
// parameter/FLOPs accounting, and state serialization.
//
// It plays the role PyTorch plays in the paper: the NAS decodes genomes
// into Networks, trains them epoch by epoch, and reports per-epoch
// validation accuracy to the A4NN prediction engine. Batch tensors use
// the NCHW layout for convolutional layers and (N, features) for dense
// layers; heavy kernels inherit goroutine parallelism from
// internal/tensor.
package nn

import (
	"fmt"

	"a4nn/internal/tensor"
)

// Param is a trainable parameter: its value, the gradient accumulated by
// the latest backward pass, and a name used in state dictionaries.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// newParam allocates a parameter with a zeroed gradient of the same shape.
func newParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable stage of a network. Forward caches whatever
// it needs for the subsequent Backward; a Layer therefore serves one
// forward/backward pair at a time (each network is trained by a single
// goroutine; parallelism lives inside the tensor kernels and across
// networks in the resource manager).
type Layer interface {
	// Name returns a short human-readable identifier, e.g. "conv3x3(16)".
	Name() string
	// Forward computes the layer output for a batch. train selects
	// training-time behaviour (batch statistics).
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error)
	// Backward consumes ∂L/∂output and returns ∂L/∂input, accumulating
	// parameter gradients along the way. It must follow a Forward call
	// with train=true.
	Backward(grad *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// OutShape returns the per-sample output shape for a per-sample input
	// shape (excluding the batch dimension).
	OutShape(in []int) ([]int, error)
	// FLOPs estimates the floating-point operations of one forward pass
	// for a single sample with the given per-sample input shape.
	FLOPs(in []int) int64
}

// shapeProduct multiplies the dimensions of a per-sample shape.
func shapeProduct(s []int) int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// errShape builds a consistent shape-mismatch error.
func errShape(layer string, want, got interface{}) error {
	return fmt.Errorf("nn: %s: expected input shape %v, got %v", layer, want, got)
}
