package nn

import "a4nn/internal/tensor"

// ws is the package-wide kernel workspace. Every layer obtains its forward
// caches, gradient buffers, and rearrange scratch from here and keeps them
// for the life of its network, so in steady state (same shapes step after
// step) a training step performs no tensor allocations; a buffer whose
// shape changes (the last partial batch) goes back to the pool at once.
// When a model attempt ends, Network.Release hands every layer's buffers
// back to the workspace's size-classed pools, and the next NAS candidate
// trains on that memory instead of allocating and zeroing its own.
//
// The workspace is safe for concurrent use, so networks trained on
// different goroutines (the resource manager trains one network per
// simulated device) share one pool of scratch memory. Each buffer is
// privately owned by exactly one layer between Obtain and the next
// Obtain/Put, which is what makes the reuse race-free. The pools are
// sync.Pools, which the garbage collector empties; with networks
// recycling their scratch, collections between two candidates are rare.
var ws = tensor.NewWorkspace()

// Scratch returns the workspace every layer of this package draws its
// buffers from. Composite layers built elsewhere (the genome package's
// blocks and cells) draw from it too, so a buffer one network released
// serves whichever layer of the next network asks for its size.
func Scratch() *tensor.Workspace { return ws }

// Releaser is implemented by layers that hold workspace buffers: Conv2D,
// Dense, BatchNormReLU, MaxPool2D, AvgPool2D and GlobalAvgPool2D here, and
// genome's phase blocks and micro cells. Release hands them back to the
// workspace. Parameters, optimizer state and
// batch-norm running statistics stay, so a released layer still saves its
// state, and its next Forward obtains buffers again; a Backward must
// follow a new training Forward.
type Releaser interface {
	Release()
}

// release hands each buffer back to ws. Put empties a tensor rather than
// dropping it, so a later Obtain on the same field draws from the pool.
func release(ts ...*tensor.Tensor) {
	for _, t := range ts {
		ws.Put(t)
	}
}
