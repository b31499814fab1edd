package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"a4nn/internal/genome"
	"a4nn/internal/nn"
	"a4nn/internal/nsga"
	"a4nn/internal/sched"
	"a4nn/internal/tensor"
)

// raceBuild is set under the race detector, whose sync.Pool drops pooled
// items at random.
var raceBuild bool

// holdScratch empties the workspace's pools, then keeps what is put into
// them until the test ends: the collector is off (sync.Pool empties at
// every collection) and one P runs the test (a pooled item left in one
// P's private slot is out of reach of a Get on another).
func holdScratch(t *testing.T) {
	runtime.GC()
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
		runtime.GC()
		runtime.GC()
	})
}

// poisonScratch fills the workspace with a NaN buffer of every size class
// up to 2²⁴ elements, so the next Obtain of any size is handed NaNs.
func poisonScratch(t *testing.T) {
	holdScratch(t)
	ws := nn.Scratch()
	for k := 0; k <= 24; k++ {
		ws.Put(tensor.Full(math.NaN(), 1<<k))
	}
}

// TestRecycledScratchKeepsBits trains the golden macro and micro models on
// a poisoned workspace: a layer that read a recycled buffer before writing
// it would carry NaN into the loss, the accuracies or the state digest.
func TestRecycledScratchKeepsBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits recorded on amd64")
	}
	poisonScratch(t)
	checkRealGoldenBits(t)
	poisonScratch(t)
	checkMicroEpochBits(t)
}

// allocatedBy returns the bytes f allocates on the heap.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReleasedModelRecyclesScratch pins the model lifecycle: the runner
// releases a model when its attempt ends, and the next candidate trains
// on its scratch. Model B, A's architecture at another seed, is built and
// trained one epoch after A is released, and allocates at most a tenth of
// what A's build and first epoch did.
func TestReleasedModelRecyclesScratch(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops released buffers at random")
	}
	trainer, g := goldenTrainer(t)
	holdScratch(t)
	first := func(seed int64) (m Trainable, bytes uint64) {
		bytes = allocatedBy(func() {
			var err error
			if m, err = trainer.NewModel(g, seed); err != nil {
				t.Fatal(err)
			}
			if _, err := m.TrainEpoch(); err != nil {
				t.Fatal(err)
			}
		})
		return m, bytes
	}
	a, aBytes := first(17)
	release(a)
	b, bBytes := first(18)
	release(b)
	t.Logf("model A: %.2f MB, model B on A's released scratch: %.2f MB", float64(aBytes)/1e6, float64(bBytes)/1e6)
	if bBytes*10 > aBytes {
		t.Errorf("model B's build and first epoch allocated %d bytes, more than a tenth of model A's %d", bBytes, aBytes)
	}
}

// TestMicroSteadyEpochAllocates bounds a micro model's steady epoch at
// TestMicroGoldenBits' shapes: its cells keep their buffers from epoch to
// epoch, as the macro blocks do, so a second epoch allocates under 1 MB.
func TestMicroSteadyEpochAllocates(t *testing.T) {
	m := goldenMicroModel(t)
	if _, err := m.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
	bytes := allocatedBy(func() {
		if _, err := m.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady micro epoch: %.3f MB", float64(bytes)/1e6)
	if bytes > 1e6 {
		t.Errorf("a steady micro epoch allocated %d bytes, want under 1 MB", bytes)
	}
}

// releaseCounter's models count the releases the runner makes; with fail
// set every epoch fails, so every attempt ends on the error path.
type releaseCounter struct {
	fail            bool
	built, released atomic.Int64
}

func (c *releaseCounter) TrainSamples() int { return 100 }
func (c *releaseCounter) NewModel(*genome.Genome, int64) (Trainable, error) {
	c.built.Add(1)
	return &countedModel{c: c}, nil
}

type countedModel struct {
	failingModel
	c *releaseCounter
}

func (m *countedModel) TrainEpoch() (EpochMetrics, error) {
	if m.c.fail {
		return m.failingModel.TrainEpoch()
	}
	return EpochMetrics{ValAccuracy: 50}, nil
}
func (m *countedModel) Release() { m.c.released.Add(1) }

// TestRunnerReleasesEveryModel: every model the runner builds is released
// once when its attempt ends, trained to the end or failed and retried.
func TestRunnerReleasesEveryModel(t *testing.T) {
	for _, fail := range []bool{false, true} {
		tr := &releaseCounter{fail: fail}
		cfg := DefaultConfig(tr)
		cfg.NAS = nsga.Config{PopulationSize: 2, Offspring: 2, Generations: 1, Seed: 3}
		cfg.Retry = sched.RetryPolicy{MaxAttempts: 2}
		if _, err := Run(cfg); (err != nil) != fail {
			t.Fatalf("fail=%t: run error %v", fail, err)
		}
		if built, released := tr.built.Load(), tr.released.Load(); built == 0 || released != built {
			t.Errorf("fail=%t: %d models built, %d released", fail, built, released)
		}
	}
}
