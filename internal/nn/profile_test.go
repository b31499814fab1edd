package nn

import (
	"math/rand"
	"testing"

	"a4nn/internal/obs"
	"a4nn/internal/tensor"
)

// profNet builds a network containing every layer type the decoded
// genomes can produce, plus one training batch.
func profNet(t testing.TB) (*Network, []Batch) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	conv, err := NewConv2D(rng, 3, 4, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := NewBatchNormReLU(4)
	if err != nil {
		t.Fatal(err)
	}
	maxp, err := NewMaxPool2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	avgp, err := NewAvgPool2DPadded(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDense(rng, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	// gap collapses (N,4,2,2) to (N,4).
	net, err := NewNetwork("prof", []int{3, 8, 8},
		conv, bn, maxp, avgp, NewGlobalAvgPool2D(), dense)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 8, 3, 8, 8)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return net, []Batch{{X: x, Labels: labels}}
}

func TestLayerKind(t *testing.T) {
	cases := map[string]string{
		"conv3x3(3->4,s1,p1)":       "conv3x3",
		"bnrelu(4)":                 "bnrelu",
		"relu":                      "relu",
		"maxpool2x2/s2,p0":          "maxpool2x2",
		"avgpool2x2/s2,p0":          "avgpool2x2",
		"gap":                       "gap",
		"dense(4->10)":              "dense",
		"phase(w=8,nodes=4,skip=t)": "phase",
		"cell(w=8,nodes=3,outs=1)":  "cell",
	}
	for name, want := range cases {
		if got := layerKind(name); got != want {
			t.Errorf("layerKind(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestProfilerCoversEveryLayerType runs a real TrainEpoch through a
// network containing every layer type and checks that each kind has
// forward and backward time observed and FLOPs accounted.
func TestProfilerCoversEveryLayerType(t *testing.T) {
	reg := obs.NewRegistry()
	tensor.ResetKernelCounters()
	SetProfiler(NewProfiler(reg))
	defer SetProfiler(nil)

	net, batches := profNet(t)
	opt, err := NewSGD(0.01, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := TrainEpoch(net, opt, batches); err != nil {
		t.Fatal(err)
	}

	kinds := []string{"conv3x3", "bnrelu", "maxpool2x2", "avgpool2x2", "gap", "dense"}
	for _, kind := range kinds {
		fwd := reg.Histogram(`a4nn_nn_layer_forward_seconds{layer="`+kind+`"}`, nil)
		bwd := reg.Histogram(`a4nn_nn_layer_backward_seconds{layer="`+kind+`"}`, nil)
		calls := reg.Counter(`a4nn_nn_layer_calls_total{layer="` + kind + `"}`)
		flops := reg.Counter(`a4nn_nn_layer_flops_total{layer="` + kind + `"}`)
		if fwd.Count() == 0 {
			t.Errorf("%s: no forward time observed", kind)
		}
		if bwd.Count() == 0 {
			t.Errorf("%s: no backward time observed", kind)
		}
		if calls.Value() == 0 {
			t.Errorf("%s: no calls counted", kind)
		}
		if flops.Value() == 0 {
			t.Errorf("%s: no FLOPs accounted", kind)
		}
	}

	// The conv and dense layers run on the GEMM kernels, so the tensor
	// kernel counters must have moved, and syncing must surface them as
	// gauges.
	calls, flops := tensor.KernelCounters()
	if calls == 0 || flops == 0 {
		t.Fatalf("kernel counters calls=%d flops=%d, want both > 0", calls, flops)
	}
	ActiveProfiler().SyncKernelCounters()
	if got := reg.Gauge("a4nn_tensor_matmul_calls").Value(); got != float64(calls) {
		t.Fatalf("a4nn_tensor_matmul_calls gauge = %v, want %d", got, calls)
	}
	if got := reg.Gauge("a4nn_tensor_matmul_flops").Value(); got != float64(flops) {
		t.Fatalf("a4nn_tensor_matmul_flops gauge = %v, want %d", got, flops)
	}
}

// TestProfilerFLOPsScaleWithBatch pins the accounting contract: booked
// FLOPs are per-sample layer FLOPs times the batch size.
func TestProfilerFLOPsScaleWithBatch(t *testing.T) {
	reg := obs.NewRegistry()
	SetProfiler(NewProfiler(reg))
	defer SetProfiler(nil)

	rng := rand.New(rand.NewSource(3))
	net, err := NewNetwork("flops", []int{6}, NewReLU())
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 0, 1, 4, 6) // batch 4, 6 features
	if _, err := net.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	want := uint64(4 * 6) // one comparison per element
	if got := reg.Counter(`a4nn_nn_layer_flops_total{layer="relu"}`).Value(); got != want {
		t.Fatalf("relu FLOPs = %d, want %d", got, want)
	}
}

// TestDisabledProfilerIsFree pins the disabled path at zero
// allocations: with no profiler installed, the steady-state
// forward/backward of a pooled-buffer network must not allocate.
func TestDisabledProfilerIsFree(t *testing.T) {
	SetProfiler(nil)
	net, x, grad := reluNet(t)
	// Warm the pooled buffers and caches.
	if _, err := net.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	if err := net.Backward(grad); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := net.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		if err := net.Backward(grad); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled profiler forward/backward allocates %.0f per op, want 0", allocs)
	}
}

// reluNet builds a ReLU-only network whose steady-state training pass
// is allocation-free (pooled y/dx buffers, cached masks).
func reluNet(t testing.TB) (*Network, *tensor.Tensor, *tensor.Tensor) {
	t.Helper()
	net, err := NewNetwork("relu-only", []int{64}, NewReLU(), NewReLU(), NewReLU())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := tensor.Randn(rng, 0, 1, 16, 64)
	grad := tensor.Ones(16, 64)
	return net, x, grad
}

// BenchmarkDisabledProfiler is the bench-gate's disabled-path probe:
// per-layer hooks off must stay at 0 allocs/op.
func BenchmarkDisabledProfiler(b *testing.B) {
	SetProfiler(nil)
	net, x, grad := reluNet(b)
	if _, err := net.Forward(x, true); err != nil {
		b.Fatal(err)
	}
	if err := net.Backward(grad); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Forward(x, true); err != nil {
			b.Fatal(err)
		}
		if err := net.Backward(grad); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfiledTrainStep measures the same train step as
// BenchmarkTrainStep with the profiler installed, so the hook overhead
// is visible next to the baseline.
func BenchmarkProfiledTrainStep(b *testing.B) {
	reg := obs.NewRegistry()
	SetProfiler(NewProfiler(reg))
	defer SetProfiler(nil)
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
