package nn

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"a4nn/internal/obs"
	"a4nn/internal/tensor"
)

// Profiler accounts per-layer forward/backward wall time and FLOPs
// into labelled series of a metrics registry:
//
//	a4nn_nn_layer_forward_seconds{layer="conv3x3"}   histogram
//	a4nn_nn_layer_backward_seconds{layer="conv3x3"}  histogram
//	a4nn_nn_layer_flops_total{layer="conv3x3"}       counter
//	a4nn_nn_layer_calls_total{layer="conv3x3"}       counter
//
// Layers are keyed by kind — the layer Name() truncated at its first
// configuration delimiter ('(' or '/'), so every conv3x3 shares one
// series and metric cardinality stays bounded by the layer vocabulary,
// not the search space.
//
// One profiler is installed process-wide with SetProfiler, mirroring
// the package's workspace: training runs one network per goroutine,
// and an atomic global keeps the disabled path at a single load and
// branch with zero allocations (see BenchmarkDisabledProfiler and the
// bench-gate).
type Profiler struct {
	reg   *obs.Registry
	mu    sync.Mutex
	kinds map[string]*layerInstr

	matmulCalls *obs.Gauge
	matmulFLOPs *obs.Gauge
}

// layerInstr holds the resolved handles of one layer kind.
type layerInstr struct {
	fwd   *obs.Histogram
	bwd   *obs.Histogram
	flops *obs.Counter
	calls *obs.Counter
}

// NewProfiler returns a profiler writing into reg (nil reg returns
// nil: installing a nil profiler disables profiling).
func NewProfiler(reg *obs.Registry) *Profiler {
	if reg == nil {
		return nil
	}
	return &Profiler{
		reg:         reg,
		kinds:       make(map[string]*layerInstr),
		matmulCalls: reg.Gauge("a4nn_tensor_matmul_calls"),
		matmulFLOPs: reg.Gauge("a4nn_tensor_matmul_flops"),
	}
}

// activeProf is the process-wide installed profiler (nil = disabled).
var activeProf atomic.Pointer[Profiler]

// SetProfiler installs p as the process-wide layer profiler (nil
// uninstalls). It also switches the tensor package's GEMM kernel
// counters on or off to match.
func SetProfiler(p *Profiler) {
	if p == nil {
		activeProf.Store(nil)
		tensor.EnableKernelCounters(false)
		return
	}
	activeProf.Store(p)
	tensor.EnableKernelCounters(true)
}

// ActiveProfiler returns the installed profiler (nil when disabled).
func ActiveProfiler() *Profiler { return activeProf.Load() }

// SyncKernelCounters copies the tensor package's GEMM kernel totals
// into the profiler's gauges; call at shutdown (or any snapshot point)
// before flushing metrics. Nil-safe.
func (p *Profiler) SyncKernelCounters() {
	if p == nil {
		return
	}
	calls, flops := tensor.KernelCounters()
	p.matmulCalls.Set(float64(calls))
	p.matmulFLOPs.Set(float64(flops))
}

// layerKind maps a layer Name() to its metric label: the name up to
// the first configuration delimiter.
func layerKind(name string) string {
	if i := strings.IndexAny(name, "(/"); i >= 0 {
		return name[:i]
	}
	return name
}

// instr resolves (registering on first use) the handles for a kind.
func (p *Profiler) instr(kind string) *layerInstr {
	p.mu.Lock()
	defer p.mu.Unlock()
	li, ok := p.kinds[kind]
	if !ok {
		li = &layerInstr{
			fwd:   p.reg.Histogram(`a4nn_nn_layer_forward_seconds{layer="`+kind+`"}`, obs.LayerSecondsBuckets),
			bwd:   p.reg.Histogram(`a4nn_nn_layer_backward_seconds{layer="`+kind+`"}`, obs.LayerSecondsBuckets),
			flops: p.reg.Counter(`a4nn_nn_layer_flops_total{layer="` + kind + `"}`),
			calls: p.reg.Counter(`a4nn_nn_layer_calls_total{layer="` + kind + `"}`),
		}
		p.kinds[kind] = li
	}
	return li
}

// profBinding caches a network's per-layer handles and per-sample
// FLOPs so the profiled hot loop does no map lookups and no shape
// walking. It is rebuilt when the installed profiler changes.
type profBinding struct {
	p     *Profiler
	slots []*layerInstr
	flops []int64 // per-sample forward FLOPs per layer
}

// binding returns the network's binding for p, building it on first
// use. Networks are trained by a single goroutine (see Layer), so the
// cached binding needs no lock.
func (n *Network) binding(p *Profiler) *profBinding {
	if n.prof != nil && n.prof.p == p {
		return n.prof
	}
	b := &profBinding{
		p:     p,
		slots: make([]*layerInstr, len(n.Layers)),
		flops: make([]int64, len(n.Layers)),
	}
	shape := n.InShape
	for i, l := range n.Layers {
		b.slots[i] = p.instr(layerKind(l.Name()))
		b.flops[i] = l.FLOPs(shape)
		out, err := l.OutShape(shape)
		if err != nil {
			break // downstream layers keep zero FLOPs; timing still works
		}
		shape = out
	}
	n.prof = b
	return b
}

// forwardProfiled is Network.Forward with per-layer accounting.
func (n *Network) forwardProfiled(p *Profiler, x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	b := n.binding(p)
	batch := int64(1)
	if x.Rank() > 0 {
		batch = int64(x.Dim(0))
	}
	var err error
	for i, l := range n.Layers {
		start := time.Now()
		x, err = l.Forward(x, train)
		if err != nil {
			return nil, wrapLayerErr(n, i, "forward", err)
		}
		s := b.slots[i]
		s.fwd.Observe(time.Since(start).Seconds())
		s.calls.Inc()
		s.flops.Add(int(batch * b.flops[i]))
	}
	return x, nil
}

// backwardProfiled is Network.Backward with per-layer accounting.
func (n *Network) backwardProfiled(p *Profiler, grad *tensor.Tensor) error {
	b := n.binding(p)
	var err error
	for i := len(n.Layers) - 1; i >= 0; i-- {
		start := time.Now()
		grad, err = n.Layers[i].Backward(grad)
		if err != nil {
			return wrapLayerErr(n, i, "backward", err)
		}
		b.slots[i].bwd.Observe(time.Since(start).Seconds())
	}
	return nil
}
