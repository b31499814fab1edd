package tensor

import "sync/atomic"

// Kernel counters: cheap global accounting of GEMM work, for the
// per-layer profiler's "where do the FLOPs actually go" view. The
// package stays stdlib-only and free of the obs dependency; internal/nn
// snapshots these into the metrics registry. Disabled they cost one
// atomic load and a branch per kernel call — noise next to a GEMM.
var (
	kernelCountersOn atomic.Bool
	matmulCalls      atomic.Int64
	matmulFLOPs      atomic.Int64
)

// EnableKernelCounters switches GEMM call/FLOP accounting on or off.
func EnableKernelCounters(on bool) { kernelCountersOn.Store(on) }

// KernelCountersEnabled reports whether accounting is on.
func KernelCountersEnabled() bool { return kernelCountersOn.Load() }

// KernelCounters returns the GEMM kernel totals since the last reset:
// number of MatMul*Into invocations and the FLOPs they performed
// (2·m·n·k per m×k · k×n product).
func KernelCounters() (calls, flops int64) {
	return matmulCalls.Load(), matmulFLOPs.Load()
}

// PackedKernelCalls is always 0: the packed GEMM path it counted is gone.
// It stays only because benchmark/ (frozen while it defines the repository
// benchmark) compiles against it, so tensor.gemm_packed_share reads 0,
// which is the truth; a later benchmark change retires both.
func PackedKernelCalls() int64 { return 0 }

// ResetKernelCounters zeroes the kernel totals.
func ResetKernelCounters() {
	matmulCalls.Store(0)
	matmulFLOPs.Store(0)
}

// countMatMul books one m×k · k×n product.
func countMatMul(m, n, k int) {
	if !kernelCountersOn.Load() {
		return
	}
	matmulCalls.Add(1)
	matmulFLOPs.Add(2 * int64(m) * int64(n) * int64(k))
}
