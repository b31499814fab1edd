package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFaultPlanDeterminism(t *testing.T) {
	plan := &FaultPlan{Seed: 7, TransientProb: 0.3, CrashProb: 0.2, SlowdownProb: 0.4}
	for g := 0; g < 5; g++ {
		for d := 0; d < 4; d++ {
			a1, ok1 := plan.crashPoint(g, d)
			a2, ok2 := plan.crashPoint(g, d)
			if a1 != a2 || ok1 != ok2 {
				t.Fatalf("crashPoint(%d,%d) not deterministic", g, d)
			}
			if plan.slowFactor(g, d) != plan.slowFactor(g, d) {
				t.Fatalf("slowFactor(%d,%d) not deterministic", g, d)
			}
			for a := 1; a <= 3; a++ {
				if plan.transient(g, d, a) != plan.transient(g, d, a) {
					t.Fatalf("transient(%d,%d,%d) not deterministic", g, d, a)
				}
			}
		}
	}
	// A different seed must change at least one decision across the grid.
	other := &FaultPlan{Seed: 8, TransientProb: 0.3, CrashProb: 0.2, SlowdownProb: 0.4}
	diff := false
	for g := 0; g < 10 && !diff; g++ {
		for d := 0; d < 4 && !diff; d++ {
			_, ok1 := plan.crashPoint(g, d)
			_, ok2 := other.crashPoint(g, d)
			if ok1 != ok2 || plan.transient(g, d, 1) != other.transient(g, d, 1) {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical fault decisions")
	}
}

func TestFaultPlanUniformRange(t *testing.T) {
	plan := &FaultPlan{Seed: 42}
	for i := 0; i < 1000; i++ {
		u := plan.uniform(0, i)
		if u < 0 || u >= 1 {
			t.Fatalf("uniform out of range: %v", u)
		}
	}
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	p, _ := NewPool(2, 1e9)
	if err := p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	attempts := make(map[int]int)
	flaky := func(tc TaskCtx) (float64, error) {
		mu.Lock()
		attempts[tc.Task]++
		mu.Unlock()
		if tc.Task == 1 && tc.Attempt == 1 {
			return 0.5, Transient("flaky", fmt.Errorf("spurious"))
		}
		return 2, nil
	}
	rep, err := p.RunGeneration(context.Background(), []Task{flaky, flaky, flaky})
	if err != nil {
		t.Fatalf("retry should recover: %v", err)
	}
	if attempts[1] != 2 {
		t.Fatalf("task 1 ran %d times, want 2", attempts[1])
	}
	if rep.Retries != 1 || rep.Faults != 1 {
		t.Fatalf("retries=%d faults=%d, want 1/1", rep.Retries, rep.Faults)
	}
	if math.Abs(rep.LostSeconds-0.5) > 1e-9 {
		t.Fatalf("lost = %v, want 0.5", rep.LostSeconds)
	}
	tot := p.Totals()
	if tot.Retries != 1 || tot.Faults != 1 || tot.Tasks != 3 {
		t.Fatalf("totals %+v", tot)
	}
}

func TestRetryMovesToDifferentDevice(t *testing.T) {
	p, _ := NewPool(2, 1e9)
	if err := p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3}); err != nil {
		t.Fatal(err)
	}
	var devs []int
	task := func(tc TaskCtx) (float64, error) {
		if tc.Task == 0 {
			devs = append(devs, tc.Dev.ID)
			if tc.Attempt == 1 {
				return 1, Transient("flaky", fmt.Errorf("spurious"))
			}
		}
		return 1, nil
	}
	if _, err := p.RunGeneration(context.Background(), []Task{task, task}); err != nil {
		t.Fatal(err)
	}
	if len(devs) != 2 || devs[0] == devs[1] {
		t.Fatalf("retry stayed on same device: %v", devs)
	}
}

func TestRetryExhaustionAggregatesErrors(t *testing.T) {
	p, _ := NewPool(2, 1e9)
	if err := p.SetRetryPolicy(RetryPolicy{MaxAttempts: 2}); err != nil {
		t.Fatal(err)
	}
	cause := fmt.Errorf("persistently broken")
	alwaysFail := func(tc TaskCtx) (float64, error) {
		if tc.Task == 0 {
			return 1, Transient("broken", cause)
		}
		return 3, nil
	}
	rep, err := p.RunGeneration(context.Background(), []Task{alwaysFail, alwaysFail, alwaysFail})
	if err == nil {
		t.Fatal("exhausted retries must surface an error")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("joined error lost the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "after 2 attempt(s)") {
		t.Fatalf("error should mention attempts: %v", err)
	}
	// Satellite 1: accounting is committed even though a task failed.
	if rep == nil {
		t.Fatal("report must be returned alongside the error")
	}
	if rep.Faults != 2 || rep.Retries != 1 {
		t.Fatalf("faults=%d retries=%d, want 2/1", rep.Faults, rep.Retries)
	}
	if math.Abs(rep.LostSeconds-2) > 1e-9 {
		t.Fatalf("lost = %v, want 2", rep.LostSeconds)
	}
	tot := p.Totals()
	if tot.Tasks != 3 || tot.BusySeconds == 0 || tot.WallSeconds == 0 {
		t.Fatalf("accounting dropped on error: %+v", tot)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	p, _ := NewPool(1, 1e9)
	if err := p.SetRetryPolicy(RetryPolicy{MaxAttempts: 10, Budget: 1}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	alwaysFail := func(tc TaskCtx) (float64, error) {
		calls++
		return 1, Transient("broken", fmt.Errorf("nope"))
	}
	_, err := p.RunGeneration(context.Background(), []Task{alwaysFail})
	if err == nil {
		t.Fatal("must fail once the retry budget is spent")
	}
	if calls != 2 { // initial attempt + the single budgeted retry
		t.Fatalf("task ran %d times, want 2", calls)
	}
}

func TestFatalErrorNotRetried(t *testing.T) {
	p, _ := NewPool(2, 1e9)
	if err := p.SetRetryPolicy(RetryPolicy{MaxAttempts: 5}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	fatal := func(tc TaskCtx) (float64, error) {
		calls++
		return 1, fmt.Errorf("bad genome")
	}
	if _, err := p.RunGeneration(context.Background(), []Task{fatal}); err == nil {
		t.Fatal("fatal error must propagate")
	}
	if calls != 1 {
		t.Fatalf("fatal task retried %d times", calls)
	}
}

func TestExplicitCrashRedistributesWork(t *testing.T) {
	p, _ := NewPool(2, 1e9)
	plan := &FaultPlan{Crashes: []DeviceCrash{{Device: 1, Generation: 0, AfterTasks: 1}}}
	if err := p.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	perDev := make(map[int]int)
	task := func(tc TaskCtx) (float64, error) {
		mu.Lock()
		perDev[tc.Dev.ID]++
		mu.Unlock()
		return 1, nil
	}
	tasks := make([]Task, 6)
	for i := range tasks {
		tasks[i] = task
	}
	rep, err := p.RunGeneration(context.Background(), tasks)
	if err != nil {
		t.Fatalf("crash with survivors must not fail the generation: %v", err)
	}
	// Every task still completed; the dead device ran at most its quota.
	total := 0
	for _, c := range perDev {
		total += c
	}
	if total != 6 {
		t.Fatalf("completed %d task runs, want 6", total)
	}
	if perDev[1] > 1 {
		t.Fatalf("crashed device ran %d tasks after its quota of 1", perDev[1])
	}
	if rep.Faults == 0 {
		t.Fatal("crash must count as a fault")
	}
	if got := p.DeadDevices(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("dead devices %v, want [1]", got)
	}
	if p.Totals().DeadDevices != 1 {
		t.Fatalf("totals %+v", p.Totals())
	}
	// The next generation runs entirely on the survivor.
	perDev = make(map[int]int)
	if _, err := p.RunGeneration(context.Background(), tasks[:3]); err != nil {
		t.Fatal(err)
	}
	if perDev[1] != 0 || perDev[0] != 3 {
		t.Fatalf("dead device got work: %v", perDev)
	}
}

func TestCrashAccountingConsistent(t *testing.T) {
	p, _ := NewPool(3, 1e9)
	plan := &FaultPlan{Crashes: []DeviceCrash{{Device: 2, Generation: 0, AfterTasks: 1}}}
	if err := p.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	// Real execution is near-instant, so without care one worker could
	// drain the whole queue. Block the first three tasks until all three
	// devices hold one, then keep the survivors busy in real time so the
	// doomed device (quota 1) pops its second attempt while work is
	// still queued — a guaranteed mid-generation crash.
	var startCount atomic.Int32
	release := make(chan struct{})
	tasks := make([]Task, 9)
	for i := range tasks {
		tasks[i] = func(tc TaskCtx) (float64, error) {
			if startCount.Add(1) == 3 {
				close(release)
			}
			<-release
			if tc.Dev.ID != 2 {
				time.Sleep(30 * time.Millisecond)
			}
			return 2, nil
		}
	}
	rep, err := p.RunGeneration(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	var busy float64
	for _, b := range rep.DeviceBusy {
		busy += b
	}
	// Busy covers the 9 successful runs plus the lost partial attempt.
	want := 9*2.0 + rep.LostSeconds
	if math.Abs(busy-want) > 1e-9 {
		t.Fatalf("busy %v, want %v (9 tasks + lost %v)", busy, want, rep.LostSeconds)
	}
	if rep.WallSeconds < 2 || rep.WallSeconds > 9*2+rep.LostSeconds {
		t.Fatalf("wall %v outside [2, serial]", rep.WallSeconds)
	}
	if rep.IdleSeconds < 0 {
		t.Fatalf("negative idle %v", rep.IdleSeconds)
	}
	if rep.LostSeconds <= 0 {
		t.Fatalf("crash lost no time: %+v", rep)
	}
}

func TestLastSurvivorNeverCrashes(t *testing.T) {
	p, _ := NewPool(1, 1e9)
	plan := &FaultPlan{Crashes: []DeviceCrash{{Device: 0, Generation: 0, AfterTasks: 0}}}
	if err := p.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	rep, err := p.RunGeneration(context.Background(), []Task{constTask(1), constTask(1)})
	if err != nil {
		t.Fatalf("last survivor must keep working: %v", err)
	}
	if rep.WallSeconds != 2 {
		t.Fatalf("wall %v", rep.WallSeconds)
	}
	if len(p.DeadDevices()) != 0 {
		t.Fatal("sole device must not die")
	}
}

func TestAllDevicesDeadFailsCleanly(t *testing.T) {
	p, _ := NewPool(2, 1e9)
	plan := &FaultPlan{Crashes: []DeviceCrash{
		{Device: 0, Generation: 0, AfterTasks: 0},
		{Device: 1, Generation: 1, AfterTasks: 0},
	}}
	if err := p.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	gen := func() error {
		_, err := p.RunGeneration(context.Background(), []Task{constTask(1), constTask(1)})
		return err
	}
	if err := gen(); err != nil { // device 0 dies, device 1 survives
		t.Fatal(err)
	}
	if err := gen(); err != nil { // device 1 is last survivor → guarded
		t.Fatal(err)
	}
	if len(p.DeadDevices()) != 1 {
		t.Fatalf("dead %v", p.DeadDevices())
	}
	p.Reset()
	if len(p.DeadDevices()) != 0 {
		t.Fatal("Reset must revive devices")
	}
}

func TestInjectedTransientFaultsRetryAndComplete(t *testing.T) {
	p, _ := NewPool(2, 1e9)
	if err := p.SetFaultPlan(&FaultPlan{Seed: 3, TransientProb: 0.2}); err != nil {
		t.Fatal(err)
	}
	tasks := make([]Task, 20)
	for i := range tasks {
		tasks[i] = constTask(1)
	}
	rep, err := p.RunGeneration(context.Background(), tasks)
	if err != nil {
		t.Fatalf("default retry policy should absorb 20%% transients: %v", err)
	}
	if rep.Faults == 0 || rep.Retries == 0 {
		t.Fatalf("seed 3 at 20%% should inject faults: %+v", rep)
	}
	for i, d := range rep.TaskSeconds {
		if d != 1 {
			t.Fatalf("task %d duration %v", i, d)
		}
	}
}

func TestSlowFactorReachesTask(t *testing.T) {
	p, _ := NewPool(1, 1e9)
	if err := p.SetFaultPlan(&FaultPlan{Seed: 1, SlowdownProb: 1, SlowdownFactor: 3}); err != nil {
		t.Fatal(err)
	}
	var seen float64
	task := func(tc TaskCtx) (float64, error) {
		seen = tc.SlowFactor
		return 1, nil
	}
	if _, err := p.RunGeneration(context.Background(), []Task{task}); err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Fatalf("SlowFactor %v, want 3", seen)
	}
}

func TestDeadlineRedispatch(t *testing.T) {
	p, _ := NewPool(2, 1e9)
	if err := p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetTaskDeadline(5); err != nil {
		t.Fatal(err)
	}
	var firstDev = -1
	straggler := func(tc TaskCtx) (float64, error) {
		if tc.Task == 0 && tc.Attempt == 1 {
			firstDev = tc.Dev.ID
			// Cooperative straggler: notices the deadline and gives up.
			return tc.DeadlineSeconds, Transient("deadline", ErrDeadline)
		}
		return 2, nil
	}
	rep, err := p.RunGeneration(context.Background(), []Task{straggler, straggler, straggler})
	if err != nil {
		t.Fatalf("straggler should be re-dispatched: %v", err)
	}
	if firstDev < 0 {
		t.Fatal("straggler never ran")
	}
	if rep.Retries != 1 || math.Abs(rep.LostSeconds-5) > 1e-9 {
		t.Fatalf("retries=%d lost=%v, want 1/5", rep.Retries, rep.LostSeconds)
	}
}

func TestRunGenerationContextCancel(t *testing.T) {
	p, _ := NewPool(2, 1e9)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 8)
	task := func(tc TaskCtx) (float64, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-tc.Ctx.Done()
		return 0, tc.Ctx.Err()
	}
	go func() {
		<-started
		cancel()
	}()
	_, err := p.RunGeneration(ctx, []Task{task, task, task, task})
	if err == nil {
		t.Fatal("canceled generation must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestTransientErrorVocabulary(t *testing.T) {
	base := fmt.Errorf("boom")
	err := Transient("test", base)
	if !IsTransient(err) {
		t.Fatal("Transient not recognised")
	}
	if !errors.Is(err, base) {
		t.Fatal("Unwrap broken")
	}
	if IsTransient(base) {
		t.Fatal("plain error must not be transient")
	}
	wrapped := fmt.Errorf("outer: %w", Transient("inner", ErrDeadline))
	if !IsTransient(wrapped) || !errors.Is(wrapped, ErrDeadline) {
		t.Fatal("nested transient lost")
	}
}

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("transient=0.05;crash=1@2;slowdown=0.1;seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if plan.TransientProb != 0.05 || plan.SlowdownProb != 0.1 || plan.Seed != 7 {
		t.Fatalf("parsed %+v", plan)
	}
	if len(plan.Crashes) != 1 || plan.Crashes[0] != (DeviceCrash{Device: 1, Generation: 2, AfterTasks: -1}) {
		t.Fatalf("crashes %+v", plan.Crashes)
	}

	plan, err = ParseFaultPlan("crash=0@1+3,crash=0.01,failpoint=0.25,slowfactor=2")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Crashes[0] != (DeviceCrash{Device: 0, Generation: 1, AfterTasks: 3}) {
		t.Fatalf("crash with quota %+v", plan.Crashes[0])
	}
	if plan.CrashProb != 0.01 || plan.FailPoint != 0.25 || plan.SlowdownFactor != 2 {
		t.Fatalf("parsed %+v", plan)
	}

	for _, bad := range []string{
		"", "transient", "transient=x", "bogus=1", "transient=2",
		"crash=1@", "crash=x@1", "slowfactor=0.5",
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q must fail", bad)
		}
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	var rp RetryPolicy
	if rp.maxAttempts(false) != 1 || rp.maxAttempts(true) != 3 {
		t.Fatalf("default attempts %d/%d", rp.maxAttempts(false), rp.maxAttempts(true))
	}
	if rp.backoff(2) != 2 || rp.backoff(3) != 4 || rp.backoff(4) != 8 {
		t.Fatalf("backoff sequence %v %v %v", rp.backoff(2), rp.backoff(3), rp.backoff(4))
	}
	if rp.backoff(10) != 30 {
		t.Fatalf("backoff cap %v", rp.backoff(10))
	}
	custom := RetryPolicy{BackoffSeconds: 1, MaxBackoffSeconds: 3}
	if custom.backoff(2) != 1 || custom.backoff(3) != 2 || custom.backoff(4) != 3 {
		t.Fatalf("custom backoff %v %v %v", custom.backoff(2), custom.backoff(3), custom.backoff(4))
	}
	if err := (RetryPolicy{MaxAttempts: -1}).Validate(); err == nil {
		t.Fatal("negative attempts must fail")
	}
	if err := (&FaultPlan{CrashProb: 1.5}).Validate(); err == nil {
		t.Fatal("probability above 1 must fail")
	}
	if err := (&FaultPlan{SlowdownFactor: 0.1}).Validate(); err == nil {
		t.Fatal("slow factor below 1 must fail")
	}
}

func TestFaultFreeGenerationMatchesLegacyAccounting(t *testing.T) {
	// With a fault plan installed but no faults firing, accounting must
	// still match the deterministic FIFO reconstruction.
	p, _ := NewPool(2, 1e9)
	if err := p.SetFaultPlan(&FaultPlan{Seed: 9}); err != nil { // all probs 0
		t.Fatal(err)
	}
	rep, err := p.RunGeneration(context.Background(), []Task{constTask(4), constTask(1), constTask(1), constTask(1)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WallSeconds != 4 || rep.IdleSeconds != 1 {
		t.Fatalf("wall=%v idle=%v, want 4/1", rep.WallSeconds, rep.IdleSeconds)
	}
}
