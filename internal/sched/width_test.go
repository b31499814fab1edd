package sched

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"a4nn/internal/obs"
)

// widthRun is everything a pool reports about one run of widthScenario.
type widthRun struct {
	Reports []GenerationReport
	Errs    []string
	Totals  Totals
	// Attempts lists every executed attempt's TaskCtx as
	// "gen/task/attempt/device/slow factor", sorted.
	Attempts []string
	// Events is the journal with Seq and Time zeroed: the sched events in
	// the order the pool emitted them.
	Events []obs.Event
}

// widthScenario runs three generations of twelve tasks on one device at
// the given GOMAXPROCS, under every fault the pool models: injected
// transients (seed 7 puts two to three in each generation), a straggler
// in generations 0 and 2 whose longer tasks miss the deadline, and a
// retry budget those misses exhaust mid-generation. Each task first
// sleeps a pseudo-random real time, so executors finish in an order
// unrelated to the order they were taken in. It also reports whether
// two attempts ever executed at once.
func widthScenario(t *testing.T, procs int) (run widthRun, overlapped bool) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	p, err := NewPool(1, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetFaultPlan(&FaultPlan{Seed: 7, TransientProb: 0.2, SlowdownProb: 0.5, SlowdownFactor: 3}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, Budget: 4}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetTaskDeadline(8); err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	p.SetObserver(o)

	var (
		mu      sync.Mutex
		running atomic.Int32
		overlap atomic.Bool
	)
	task := func(tc TaskCtx) (float64, error) {
		if running.Add(1) > 1 {
			overlap.Store(true)
		}
		defer running.Add(-1)
		jitter := splitmix64(uint64(tc.Generation<<16 | tc.Task<<4 | tc.Attempt))
		time.Sleep(time.Duration(jitter%2000) * time.Microsecond)
		mu.Lock()
		run.Attempts = append(run.Attempts, fmt.Sprintf("%d/%02d/%d/%d/%g",
			tc.Generation, tc.Task, tc.Attempt, tc.Dev.ID, tc.SlowFactor))
		mu.Unlock()
		// Fractional costs make every accumulated sum depend on the
		// order it was added in.
		cost := (1 + 0.9*float64(tc.Task%5)) * tc.SlowFactor
		if cost > tc.DeadlineSeconds {
			return tc.DeadlineSeconds, Transient("deadline", ErrDeadline)
		}
		return cost, nil
	}
	for gen := 0; gen < 3; gen++ {
		tasks := make([]Task, 12)
		for i := range tasks {
			tasks[i] = task
		}
		rep, err := p.RunGeneration(context.Background(), tasks)
		if rep == nil {
			t.Fatalf("generation %d: no report (%v)", gen, err)
		}
		run.Reports = append(run.Reports, *rep)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		run.Errs = append(run.Errs, msg)
	}
	run.Totals = p.Totals()
	sort.Strings(run.Attempts)
	for _, e := range o.Journal().Since(0) {
		e.Seq, e.Time = 0, 0
		run.Events = append(run.Events, e)
	}
	return run, overlap.Load()
}

// TestWidthInvariance is the executors' contract: a single-device search
// run on four cores reports exactly what it reports on one — every
// generation report, the totals, the attempts and their TaskCtx, the
// journal's sched events in order, and the errors. Outcomes arrive out of
// order at width four; the test fails unless they commit in take order.
func TestWidthInvariance(t *testing.T) {
	serial, _ := widthScenario(t, 1)

	// The scenario exercises what it claims to.
	var straggled, deadlines bool
	for _, e := range serial.Events {
		straggled = straggled || e.Type == obs.EventStraggler
		deadlines = deadlines || strings.Contains(e.Err, ErrDeadline.Error())
	}
	exhausted := false
	for g, msg := range serial.Errs {
		succeeded := 0
		for _, d := range serial.Reports[g].TaskSeconds {
			if d > 0 {
				succeeded++
			}
		}
		// Failing short of the three allowed attempts means the budget
		// was spent; other tasks of the generation still completed.
		budgetOut := strings.Contains(msg, "after 1 attempt(s)") || strings.Contains(msg, "after 2 attempt(s)")
		exhausted = exhausted || budgetOut && succeeded > 0
	}
	if !straggled || !deadlines || !exhausted || serial.Totals.Retries == 0 {
		t.Fatalf("scenario lost a fault class: straggler %v, deadline misses %v, budget exhausted mid-generation %v, retries %d",
			straggled, deadlines, exhausted, serial.Totals.Retries)
	}

	wide, overlapped := widthScenario(t, 4)
	if !overlapped {
		t.Fatal("at GOMAXPROCS 4 no two attempts ever ran at once; the pool did not widen")
	}
	for name, pair := range map[string][2]any{
		"reports":  {serial.Reports, wide.Reports},
		"errors":   {serial.Errs, wide.Errs},
		"totals":   {serial.Totals, wide.Totals},
		"attempts": {serial.Attempts, wide.Attempts},
		"events":   {serial.Events, wide.Events},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s differ between GOMAXPROCS 1 and 4:\n  1: %+v\n  4: %+v", name, pair[0], pair[1])
		}
	}
}

// TestWidthSharedAcrossPools bounds what concurrent searches train at
// once, as the job service runs them. Three single-device pools on four
// cores widen only into cores the others leave free: a pool starts a
// further attempt only while at most four run, and each device may
// always run one, so at most 4 + 2 attempts ever run together, where
// unshared pools would run three times four.
func TestWidthSharedAcrossPools(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var running, peak atomic.Int32
	task := func(tc TaskCtx) (float64, error) {
		n := running.Add(1)
		for p := peak.Load(); n > p; p = peak.Load() {
			if peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Duration(200+splitmix64(uint64(tc.Task))%800) * time.Microsecond)
		running.Add(-1)
		return 1, nil
	}
	var wg sync.WaitGroup
	for range 3 {
		p, err := NewPool(1, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gen := 0; gen < 4; gen++ {
				tasks := make([]Task, 16)
				for i := range tasks {
					tasks[i] = task
				}
				if _, err := p.RunGeneration(context.Background(), tasks); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 4+2 {
		t.Fatalf("%d attempts ran at once across three pools on four cores, want ≤ 6", got)
	}
	if n := executors.Load(); n != 0 {
		t.Fatalf("%d executors still counted after every generation returned", n)
	}
}
