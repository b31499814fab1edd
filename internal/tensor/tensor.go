// Package tensor provides dense, row-major float64 tensors and the
// numerical kernels (element-wise arithmetic, blocked parallel matrix
// multiplication, im2col/col2im, reductions) that underpin the neural
// network training engine in internal/nn.
//
// Tensors are deliberately simple: a shape and a contiguous backing slice.
// All randomness flows through explicit *rand.Rand values so every caller
// is deterministic given a seed. Heavy kernels (MatMul, im2col) split work
// across a goroutine pool sized by runtime.GOMAXPROCS(0).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float64 tensor. The zero value is not usable;
// construct tensors with New, Zeros, FromSlice, or the random constructors.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative; a zero-dimensional call returns a
// scalar tensor with one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = 1
	}
	return t
}

// Full returns a tensor of the given shape filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); it is an error for len(data) not to match the
// shape's element count.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("tensor: negative dimension %d in shape %v", d, shape)
		}
		n *= d
	}
	if len(data) != n {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}, nil
}

// Randn returns a tensor with elements drawn i.i.d. from N(mean, std²).
func Randn(rng *rand.Rand, mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64()*std + mean
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice is shared; do
// not modify it.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of t with a new shape covering the same backing
// data. The element counts must match.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.data), shape, n)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}, nil
}

// MustReshape is Reshape but panics on error.
func (t *Tensor) MustReshape(shape ...int) *Tensor {
	r, err := t.Reshape(shape...)
	if err != nil {
		panic(err)
	}
	return r
}

// index converts multi-dimensional indices to a flat offset.
func (t *Tensor) index(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dimension %d", x, t.shape[i], i))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Set assigns v to the element at the given indices.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx...)] = v }

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// checkSameShape panics unless t and u share a shape; op names the caller
// for the panic message.
func (t *Tensor) checkSameShape(u *Tensor, op string) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, u.shape))
	}
}

// AddInto sets dst = t + u element-wise and returns dst. dst may alias t or u.
func (t *Tensor) AddInto(u, dst *Tensor) *Tensor {
	t.checkSameShape(u, "Add")
	t.checkSameShape(dst, "Add dst")
	for i := range t.data {
		dst.data[i] = t.data[i] + u.data[i]
	}
	return dst
}

// Add returns t + u element-wise in a new tensor.
func (t *Tensor) Add(u *Tensor) *Tensor { return t.AddInto(u, New(t.shape...)) }

// Sub returns t − u element-wise in a new tensor.
func (t *Tensor) Sub(u *Tensor) *Tensor {
	t.checkSameShape(u, "Sub")
	d := New(t.shape...)
	for i := range t.data {
		d.data[i] = t.data[i] - u.data[i]
	}
	return d
}

// AddScaled performs t += s·u in place (an axpy), and returns t.
func (t *Tensor) AddScaled(u *Tensor, s float64) *Tensor {
	t.checkSameShape(u, "AddScaled")
	for i := range t.data {
		t.data[i] += s * u.data[i]
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for an empty tensor).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Equal reports whether t and u have the same shape and all elements within
// tol of each other.
func (t *Tensor) Equal(u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i := range t.data {
		if math.Abs(t.data[i]-u.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%d elements, mean=%.4g]", t.shape, len(t.data), t.Mean())
}
