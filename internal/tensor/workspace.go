package tensor

import (
	"fmt"
	"math/bits"
	"sync"
)

// wsClasses is the number of power-of-two size classes a Workspace
// maintains: buffers up to 2^33 elements (64 GiB of float64) are pooled,
// larger ones fall through to the garbage collector.
const wsClasses = 34

// Workspace recycles scratch tensors through power-of-two size classes
// backed by sync.Pool, so the training hot path stops allocating (and the
// garbage collector stops scanning) a fresh buffer for every forward cache,
// gradient, and rearrange matrix of every step.
//
// The protocol is ownership-based: a tensor obtained from a workspace is
// exclusively owned by the caller until it is handed back with Put (or
// recycled implicitly by Obtain). Workspaces are safe for concurrent use;
// the tensors they hand out are not shared until the owner shares them.
type Workspace struct {
	classes [wsClasses]sync.Pool
}

// NewWorkspace returns an empty workspace. The zero value is also usable.
func NewWorkspace() *Workspace { return &Workspace{} }

// sizeClassCeil returns the bucket whose buffers can hold n elements:
// ceil(log2 n). Buffers in bucket k are allocated with cap ≥ 2^k.
func sizeClassCeil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// sizeClassFloor returns the bucket a buffer of capacity c belongs to:
// floor(log2 c), so every buffer in bucket k satisfies cap ≥ 2^k.
func sizeClassFloor(c int) int { return bits.Len(uint(c)) - 1 }

func shapeElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return n
}

// Get returns a tensor of the given shape with unspecified contents,
// reusing a pooled buffer when one fits. Use ObtainZeroed when the caller
// does not overwrite every element.
func (w *Workspace) Get(shape ...int) *Tensor {
	n := shapeElems(shape)
	sh := append([]int(nil), shape...)
	if n == 0 {
		return &Tensor{shape: sh}
	}
	cl := sizeClassCeil(n)
	if cl >= wsClasses {
		return &Tensor{shape: sh, data: make([]float64, n)}
	}
	if v := w.classes[cl].Get(); v != nil {
		if buf := v.([]float64); cap(buf) >= n {
			return &Tensor{shape: sh, data: buf[:n]}
		}
	}
	return &Tensor{shape: sh, data: make([]float64, n, 1<<cl)}
}

// Put recycles t's storage into the workspace and detaches it from t, so
// accidental use after Put fails loudly (zero-length tensor) instead of
// silently aliasing a buffer someone else now owns. Put of nil is a no-op.
func (w *Workspace) Put(t *Tensor) {
	if t == nil || cap(t.data) == 0 {
		return
	}
	if cl := sizeClassFloor(cap(t.data)); cl < wsClasses {
		w.classes[cl].Put(t.data[:cap(t.data)])
	}
	t.data = nil
	t.shape = nil
}

// Obtain returns a tensor of the given shape with unspecified contents,
// reusing old's storage in place when it is large enough (the common
// steady-state case: same shapes step after step, zero allocations).
// Otherwise old is recycled into the pool and a pooled or fresh buffer is
// returned. old may be nil. Any other reference to old sees its shape
// change, so Obtain is only for buffers privately owned by the caller.
func (w *Workspace) Obtain(old *Tensor, shape ...int) *Tensor {
	n := shapeElems(shape)
	if old != nil && n > 0 && cap(old.data) >= n {
		old.data = old.data[:n]
		old.shape = append(old.shape[:0], shape...)
		return old
	}
	if old != nil {
		w.Put(old)
	}
	return w.Get(shape...)
}

// ObtainZeroed is Obtain with the contents cleared.
func (w *Workspace) ObtainZeroed(old *Tensor, shape ...int) *Tensor {
	t := w.Obtain(old, shape...)
	t.Zero()
	return t
}
