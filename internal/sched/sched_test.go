package sched

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func constTask(d float64) Task {
	return func(tc TaskCtx) (float64, error) { return d, nil }
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(0, 0); err == nil {
		t.Fatal("0 devices must fail")
	}
	p, err := NewPool(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 4 {
		t.Fatalf("size %d", p.Size())
	}
	for i, d := range p.Devices() {
		if d.ID != i || d.Throughput != DefaultThroughput {
			t.Fatalf("device %d = %+v", i, d)
		}
	}
}

func TestEpochCost(t *testing.T) {
	d := Device{Throughput: 1e9}
	// 1e6 FLOPs/sample × 1000 samples × 3 / 1e9 = 3 seconds.
	if got := d.EpochCost(1e6, 1000); math.Abs(got-3) > 1e-12 {
		t.Fatalf("EpochCost = %v, want 3", got)
	}
}

func TestRunGenerationSingleDevice(t *testing.T) {
	p, _ := NewPool(1, 1e9)
	rep, err := p.RunGeneration(context.Background(), []Task{constTask(2), constTask(3), constTask(5)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WallSeconds != 10 {
		t.Fatalf("wall = %v, want 10 (serial)", rep.WallSeconds)
	}
	if rep.IdleSeconds != 0 {
		t.Fatalf("idle = %v, want 0 on one device", rep.IdleSeconds)
	}
}

func TestRunGenerationFIFOPlacement(t *testing.T) {
	p, _ := NewPool(2, 1e9)
	// FIFO: dev0←4, dev1←1, dev1←1 (frees at 2), dev1←1 (frees at 3).
	// Makespan 4; busy = [4, 3]; idle = 1.
	rep, err := p.RunGeneration(context.Background(), []Task{constTask(4), constTask(1), constTask(1), constTask(1)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WallSeconds != 4 {
		t.Fatalf("wall = %v, want 4", rep.WallSeconds)
	}
	if rep.IdleSeconds != 1 {
		t.Fatalf("idle = %v, want 1", rep.IdleSeconds)
	}
	if rep.DeviceBusy[0]+rep.DeviceBusy[1] != 7 {
		t.Fatalf("busy = %v", rep.DeviceBusy)
	}
}

func TestGenerationBarrierIdle(t *testing.T) {
	// 10 equal tasks on 4 devices: 3+3+2+2 → makespan 3 units, idle 2.
	p, _ := NewPool(4, 1e9)
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = constTask(1)
	}
	rep, err := p.RunGeneration(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WallSeconds != 3 {
		t.Fatalf("wall = %v, want 3", rep.WallSeconds)
	}
	if rep.IdleSeconds != 2 {
		t.Fatalf("idle = %v, want 2 (barrier downtime)", rep.IdleSeconds)
	}
}

func TestRunGenerationExecutesConcurrently(t *testing.T) {
	p, _ := NewPool(4, 1e9)
	var peak, cur atomic.Int32
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = func(tc TaskCtx) (float64, error) {
			c := cur.Add(1)
			for {
				old := peak.Load()
				if c <= old || peak.CompareAndSwap(old, c) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond) // hold the device so tasks overlap
			cur.Add(-1)
			return 1, nil
		}
	}
	if _, err := p.RunGeneration(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d; tasks did not overlap", peak.Load())
	}
}

func TestRunGenerationPropagatesErrors(t *testing.T) {
	p, _ := NewPool(2, 1e9)
	bad := func(tc TaskCtx) (float64, error) { return 0, fmt.Errorf("train failed") }
	if _, err := p.RunGeneration(context.Background(), []Task{constTask(1), bad}); err == nil {
		t.Fatal("task error must propagate")
	}
	if _, err := p.RunGeneration(context.Background(), nil); err == nil {
		t.Fatal("empty generation must fail")
	}
}

func TestTotalsAccumulate(t *testing.T) {
	p, _ := NewPool(2, 1e9)
	if _, err := p.RunGeneration(context.Background(), []Task{constTask(2), constTask(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunGeneration(context.Background(), []Task{constTask(4)}); err != nil {
		t.Fatal(err)
	}
	p.AddOverhead(0.5)
	tot := p.Totals()
	if tot.WallSeconds != 2+4+0.5 {
		t.Fatalf("wall = %v", tot.WallSeconds)
	}
	if tot.BusySeconds != 8 {
		t.Fatalf("busy = %v", tot.BusySeconds)
	}
	if tot.IdleSeconds != 4 { // second generation leaves device 1 idle 4s
		t.Fatalf("idle = %v", tot.IdleSeconds)
	}
	if tot.Tasks != 3 || tot.Devices != 2 || tot.OverheadSeconds != 0.5 {
		t.Fatalf("totals %+v", tot)
	}
	p.Reset()
	if p.Totals().WallSeconds != 0 || p.Totals().Tasks != 0 {
		t.Fatal("Reset must clear accounting")
	}
}

// Property: for any task durations, the FIFO makespan lies between
// sum/len(devices) (perfect balance) and sum (fully serial), and never
// below the longest task.
func TestFIFOMakespanBounds(t *testing.T) {
	f := func(raw []uint8, devs uint8) bool {
		n := int(devs%4) + 1
		if len(raw) == 0 {
			return true
		}
		durations := make([]float64, len(raw))
		sum, longest := 0.0, 0.0
		for i, r := range raw {
			durations[i] = float64(r%50) + 1
			sum += durations[i]
			if durations[i] > longest {
				longest = durations[i]
			}
		}
		rep, err := SimulateFIFO(n, durations)
		if err != nil {
			return false
		}
		if rep.WallSeconds < longest-1e-9 || rep.WallSeconds > sum+1e-9 {
			return false
		}
		if rep.WallSeconds < sum/float64(n)-1e-9 {
			return false
		}
		// Busy time conservation.
		busy := 0.0
		for _, b := range rep.DeviceBusy {
			busy += b
		}
		return math.Abs(busy-sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFourDevicesNearLinear mirrors Figure 9's scalability claim: many
// similar tasks on 4 devices finish in ≈ 1/4 the simulated wall time.
func TestFourDevicesNearLinear(t *testing.T) {
	mk := func(n int) []Task {
		tasks := make([]Task, 100)
		for i := range tasks {
			tasks[i] = constTask(10 + float64(i%5))
		}
		return tasks
	}
	p1, _ := NewPool(1, 1e9)
	r1, err := p1.RunGeneration(context.Background(), mk(100))
	if err != nil {
		t.Fatal(err)
	}
	p4, _ := NewPool(4, 1e9)
	r4, err := p4.RunGeneration(context.Background(), mk(100))
	if err != nil {
		t.Fatal(err)
	}
	speedup := r1.WallSeconds / r4.WallSeconds
	if speedup < 3.5 || speedup > 4.0 {
		t.Fatalf("4-device speedup %v, want ≈4×", speedup)
	}
}

func TestSimulateFIFOExported(t *testing.T) {
	rep, err := SimulateFIFO(2, []float64{4, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WallSeconds != 4 {
		t.Fatalf("wall %v", rep.WallSeconds)
	}
	if _, err := SimulateFIFO(2, nil); err == nil {
		t.Fatal("empty durations must fail")
	}
	if _, err := SimulateFIFO(0, []float64{1}); err == nil {
		t.Fatal("0 devices must fail")
	}
}

func TestSimulateRoundRobin(t *testing.T) {
	// Round-robin: dev0 gets 4+1=5, dev1 gets 1+1=2 → wall 5, idle 3.
	rep, err := SimulateRoundRobin(2, []float64{4, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WallSeconds != 5 || rep.IdleSeconds != 3 {
		t.Fatalf("round robin wall=%v idle=%v", rep.WallSeconds, rep.IdleSeconds)
	}
	if _, err := SimulateRoundRobin(0, []float64{1}); err == nil {
		t.Fatal("0 devices must fail")
	}
	if _, err := SimulateRoundRobin(2, nil); err == nil {
		t.Fatal("empty durations must fail")
	}
}

// Property: FIFO greedy list scheduling satisfies Graham's bound — its
// makespan is within (2 − 1/n) of the trivial lower bound
// max(longest task, total/n) — while static round-robin has no such
// guarantee (its makespan can approach the serial total).
func TestFIFOGrahamBoundProperty(t *testing.T) {
	f := func(raw []uint8, devs uint8) bool {
		if len(raw) == 0 {
			return true
		}
		n := int(devs%4) + 1
		durations := make([]float64, len(raw))
		sum, longest := 0.0, 0.0
		for i, r := range raw {
			durations[i] = float64(r%60) + 1
			sum += durations[i]
			if durations[i] > longest {
				longest = durations[i]
			}
		}
		lower := math.Max(longest, sum/float64(n))
		fifo, err := SimulateFIFO(n, durations)
		if err != nil {
			return false
		}
		rr, err := SimulateRoundRobin(n, durations)
		if err != nil {
			return false
		}
		if fifo.WallSeconds > (2-1/float64(n))*lower+1e-9 {
			return false
		}
		// Round-robin is valid but unguided: it can only be bounded by the
		// serial total.
		return rr.WallSeconds <= sum+1e-9 && rr.WallSeconds >= lower-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOBeatsRoundRobinOnStragglers shows the ablation's typical case:
// when early-terminated (short) tasks mix with full-budget (long) ones,
// FIFO packs around the stragglers while round-robin stacks them.
func TestFIFOBeatsRoundRobinOnStragglers(t *testing.T) {
	durations := []float64{25, 5, 5, 5, 25, 5} // RR piles both 25s on device 0
	fifo, err := SimulateFIFO(2, durations)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := SimulateRoundRobin(2, durations)
	if err != nil {
		t.Fatal(err)
	}
	if fifo.WallSeconds >= rr.WallSeconds {
		t.Fatalf("FIFO %v should beat round-robin %v here", fifo.WallSeconds, rr.WallSeconds)
	}
}
