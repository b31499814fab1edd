package tensor

import (
	"runtime"
	"sync"
)

// maxWorkers bounds the parallelism of the tensor kernels. It is a
// variable (not a constant) so tests can exercise single-threaded paths.
var maxWorkers = runtime.GOMAXPROCS(0)

// SetMaxWorkers overrides the number of parallel chunks used by the
// kernels. Values below 1 are clamped to 1. It returns the previous value.
// It is intended for tests and benchmarks and is not safe to call
// concurrently with running kernels.
func SetMaxWorkers(n int) int {
	old := maxWorkers
	if n < 1 {
		n = 1
	}
	maxWorkers = n
	return old
}

// The kernels share one persistent pool of worker goroutines, started
// lazily on the first parallel call. Reusing workers removes the
// goroutine-spawn cost the old per-call fan-out paid on every kernel
// invocation (and the per-sample fan-out Conv2D paid on every batch).
var (
	poolOnce  sync.Once
	poolTasks chan func()
)

func ensurePool() {
	poolOnce.Do(func() {
		workers := runtime.GOMAXPROCS(0)
		if workers < 2 {
			workers = 2
		}
		poolTasks = make(chan func(), 8*workers)
		for i := 0; i < workers; i++ {
			go func() {
				for task := range poolTasks {
					task()
				}
			}()
		}
	})
}

// rangeChunk returns the chunk length parallelRange(n, minPar, …) splits
// [0, n) into (n itself when the loop runs inline), so a body can index
// per-chunk scratch by lo/chunk.
func rangeChunk(n, minPar int) int {
	workers := min(maxWorkers, n)
	if workers <= 1 || n < minPar {
		return n
	}
	return (n + workers - 1) / workers
}

// parallelRange runs body(lo, hi) over [0, n) split into roughly equal
// chunks across the worker pool, inline when n < minPar. A loop whose
// per-item work is heavy (e.g. one im2col per batch sample) is worth
// splitting even at very small n.
func parallelRange(n, minPar int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk := rangeChunk(n, minPar); chunk < n {
		forkJoin(n, chunk, body)
		return
	}
	body(0, n)
}

// forkJoin runs body over [0, n) in chunks of the given length (< n) and
// waits for all of them. Chunks are executed on the persistent worker
// pool; the calling goroutine always runs the first chunk itself. If the
// pool's queue is full the remaining chunks also run inline, which keeps
// nested or heavily concurrent callers deadlock-free. Bodies must not
// themselves depend on running in a particular goroutine.
func forkJoin(n, chunk int, body func(lo, hi int)) {
	ensurePool()
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		wg.Add(1)
		task := func(lo, hi int) func() {
			return func() {
				defer wg.Done()
				body(lo, hi)
			}
		}(lo, min(lo+chunk, n))
		select {
		case poolTasks <- task:
		default:
			task()
		}
	}
	body(0, chunk)
	wg.Wait()
}
