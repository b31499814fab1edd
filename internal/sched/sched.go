// Package sched is the A4NN workflow resource manager (paper §2.5): it
// distributes NN training tasks across accelerators with the FIFO dynamic
// scheduling the paper borrows from Ray — when a network finishes
// training, the next network in the generation starts on the freed device
// — and it accounts for the generation barrier, whose end-of-generation
// idle time the paper calls out.
//
// Devices are virtual, executors real: the host's cores, not the device
// count, set how many networks train at once (see RunGeneration). Each
// task reports its cost in simulated seconds — computed by the caller
// from model FLOPs, dataset size, and the device throughput — so that
// paper-scale wall-clock numbers (tens of hours on a V100) are
// reproduced deterministically regardless of host speed.
//
// The pool is fault-tolerant: an installed FaultPlan injects device
// crashes, transient task errors, and straggler slowdowns; transient
// failures are retried under a RetryPolicy (exponential backoff, retry
// budget, different device when possible); attempts exceeding the task
// deadline are re-dispatched; and a crashed device is drained, its queued
// work redistributed FIFO to the survivors. Totals carries the
// reliability accounting (Retries, Faults, LostSeconds) alongside the
// wall/busy/idle accounting.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"a4nn/internal/obs"
)

// executors counts the attempts running in every pool of the process, so
// that concurrent searches (the job service's) share the cores instead of
// each claiming all of them.
var executors atomic.Int32

// Device models one accelerator.
type Device struct {
	// ID indexes the device within its pool.
	ID int
	// Throughput is the effective training throughput in FLOPs/second.
	Throughput float64
}

// DefaultThroughput approximates an NVIDIA V100's effective mixed
// training throughput (far below peak): 2 TFLOP/s.
const DefaultThroughput = 2e12

// EpochCost returns the simulated seconds one training epoch costs on the
// device: samples · FLOPs/sample · backwardFactor / throughput. The
// conventional backwardFactor of 3 counts forward + ~2× backward.
func (d Device) EpochCost(flopsPerSample int64, samples int) float64 {
	const backwardFactor = 3
	return float64(flopsPerSample) * float64(samples) * backwardFactor / d.Throughput
}

// TaskCtx describes one dispatch of a task onto a device.
type TaskCtx struct {
	// Ctx is the run's cancellation context; tasks should check it
	// between epochs so cancellation stops in-flight work promptly.
	Ctx context.Context
	// Dev is the device the attempt runs on.
	Dev Device
	// Generation is the pool's 0-based generation counter.
	Generation int
	// Task is the task's index within its generation.
	Task int
	// Attempt is 1-based; values above 1 mean earlier attempts failed
	// and this is a retry (on a different device when possible).
	Attempt int
	// SlowFactor ≥ 1 marks the device a straggler for this generation;
	// cooperative tasks multiply their per-epoch simulated cost by it.
	SlowFactor float64
	// DeadlineSeconds is the per-attempt simulated deadline (0 = none).
	// Cooperative tasks abort with a transient error once their
	// simulated cost exceeds it, so the pool can re-dispatch the work.
	DeadlineSeconds float64
}

// Task is one schedulable training job. It receives its dispatch context
// and returns its total cost in simulated seconds. A failed attempt
// returns the simulated seconds it wasted before failing; errors wrapped
// with Transient are retried, anything else fails the task.
type Task func(tc TaskCtx) (simSeconds float64, err error)

// Pool is a fixed set of devices plus cumulative accounting across
// generations.
type Pool struct {
	devices []Device

	mu        sync.Mutex
	wall      float64 // total simulated wall seconds across generations
	busy      float64 // total simulated busy seconds across all devices
	idle      float64 // total simulated idle seconds (barrier waste)
	tasks     int
	overheads float64 // simulated seconds of per-task overhead added via AddOverhead
	retries   int     // re-dispatched attempts across generations
	faults    int     // fault events (injected, crash, deadline, transient)
	lost      float64 // simulated seconds wasted on failed attempts
	nextGen   int     // 0-based RunGeneration call counter
	dead      []bool  // devices lost to crashes

	plan     *FaultPlan
	retry    RetryPolicy
	deadline float64 // per-attempt simulated deadline (0 = none)
	obsv     poolObs
}

// poolObs holds the pool's pre-registered metric handles. The zero
// value (all-nil handles) disables instrumentation: every update is a
// nil-safe no-op costing one branch.
type poolObs struct {
	tasks       *obs.Counter
	dispatches  *obs.Counter
	retries     *obs.Counter
	faults      *obs.Counter
	stragglers  *obs.Counter
	generations *obs.Counter
	taskLatency *obs.Histogram
	queueWait   *obs.Histogram
	genWall     *obs.Gauge
	idle        *obs.Gauge
	gflops      *obs.Gauge
	devBusy     []*obs.Gauge
	devUtil     []*obs.Gauge
	journal     *obs.Journal
}

// SetObserver registers the pool's metrics (dispatch/retry/straggler
// counters, per-device busy gauges, task-latency and queue-wait
// histograms, all in simulated seconds) with the observer's registry.
// A nil observer removes instrumentation. Call before RunGeneration.
func (p *Pool) SetObserver(o *obs.Observer) {
	reg := o.Registry()
	p.mu.Lock()
	defer p.mu.Unlock()
	if reg == nil {
		p.obsv = poolObs{}
		return
	}
	p.obsv = poolObs{
		tasks:       reg.Counter("a4nn_sched_tasks_total"),
		dispatches:  reg.Counter("a4nn_sched_dispatches_total"),
		retries:     reg.Counter("a4nn_sched_retries_total"),
		faults:      reg.Counter("a4nn_sched_faults_total"),
		stragglers:  reg.Counter("a4nn_sched_stragglers_total"),
		generations: reg.Counter("a4nn_sched_generations_total"),
		taskLatency: reg.Histogram("a4nn_sched_task_sim_seconds", obs.SecondsBuckets),
		queueWait:   reg.Histogram("a4nn_sched_queue_wait_sim_seconds", obs.SecondsBuckets),
		genWall:     reg.Gauge("a4nn_sched_generation_wall_sim_seconds"),
		idle:        reg.Gauge("a4nn_sched_idle_sim_seconds_total"),
		gflops:      reg.Gauge("a4nn_sched_effective_gflops"),
	}
	for _, d := range p.devices {
		p.obsv.devBusy = append(p.obsv.devBusy,
			reg.Gauge(fmt.Sprintf(`a4nn_sched_device_busy_sim_seconds{device="%d"}`, d.ID)))
		p.obsv.devUtil = append(p.obsv.devUtil,
			reg.Gauge(fmt.Sprintf(`a4nn_sched_device_util_pct{device="%d"}`, d.ID)))
	}
	p.obsv.journal = o.Journal()
}

// NewPool creates a pool of n identical devices. throughput ≤ 0 selects
// DefaultThroughput.
func NewPool(n int, throughput float64) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("sched: pool needs ≥ 1 device, got %d", n)
	}
	if throughput <= 0 {
		throughput = DefaultThroughput
	}
	p := &Pool{devices: make([]Device, n), dead: make([]bool, n)}
	for i := range p.devices {
		p.devices[i] = Device{ID: i, Throughput: throughput}
	}
	return p, nil
}

// Size returns the number of devices.
func (p *Pool) Size() int { return len(p.devices) }

// Devices returns a copy of the device list.
func (p *Pool) Devices() []Device { return append([]Device(nil), p.devices...) }

// SetFaultPlan installs (or, with nil, removes) a fault-injection plan.
func (p *Pool) SetFaultPlan(plan *FaultPlan) error {
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.plan = plan
	return nil
}

// SetRetryPolicy configures transient-failure retry.
func (p *Pool) SetRetryPolicy(rp RetryPolicy) error {
	if err := rp.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.retry = rp
	return nil
}

// SetTaskDeadline sets the per-attempt simulated deadline (0 disables).
func (p *Pool) SetTaskDeadline(simSeconds float64) error {
	if simSeconds < 0 {
		return fmt.Errorf("sched: negative task deadline %v", simSeconds)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deadline = simSeconds
	return nil
}

// DeadDevices returns the IDs of devices lost to crashes, ascending.
func (p *Pool) DeadDevices() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []int
	for i, d := range p.dead {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// GenerationReport describes the simulated schedule of one generation.
type GenerationReport struct {
	// TaskSeconds is each task's final successful simulated duration, in
	// submission order (0 for tasks that failed).
	TaskSeconds []float64
	// DeviceBusy is the simulated busy time of each device (including
	// time spent on attempts that later failed).
	DeviceBusy []float64
	// WallSeconds is the generation's simulated makespan (the barrier:
	// the generation ends when its last task ends).
	WallSeconds float64
	// IdleSeconds sums each device's idle time under the barrier — the
	// downtime §2.5 describes when the generation size does not divide
	// the device count. Devices dead before the generation contribute
	// nothing; a device crashing mid-generation stops accruing idle at
	// its death.
	IdleSeconds float64
	// Retries counts re-dispatched attempts.
	Retries int
	// Faults counts fault events (injected errors, crashes, deadline
	// misses, real transient failures).
	Faults int
	// LostSeconds is the simulated time wasted on failed attempts.
	LostSeconds float64
}

// attemptMeta tracks one task's position in the retry state machine.
type attemptMeta struct {
	task      int
	attempt   int          // 1-based number of the next dispatch
	exclude   map[int]bool // devices this task already failed on
	notBefore float64      // virtual release time after backoff
}

func (a *attemptMeta) excludeDev(id int) {
	if a.exclude == nil {
		a.exclude = make(map[int]bool)
	}
	a.exclude[id] = true
}

// genRun is the state of one RunGeneration call. Only its dispatcher
// touches it: executors run an attempt and hand the outcome back.
type genRun struct {
	pool  *Pool
	gen   int
	tasks []Task
	ctx   context.Context

	obsv poolObs // snapshot of the pool's handles for this generation

	devs      []*devRun // alive at generation start
	running   int       // attempts whose executor has not returned
	queue     []*attemptMeta
	done      []bool
	durations []float64
	errs      []error
	startDead []bool
	alive     []bool
	vt        []float64 // per-device virtual clock within the generation
	busyDev   []float64
	aliveEnd  []float64 // virtual death time of devices crashing this generation
	sumDur    float64   // successful-attempt duration statistics, for
	nDur      int       // sizing injected-failure losses
	retries   int
	faults    int
	lost      float64
	budget    int // remaining retries this generation; -1 = unlimited
}

// devRun is one virtual device within a generation: its fault-plan
// fate and the attempts it has taken but not yet committed.
type devRun struct {
	dev        Device
	slow       float64
	crashAfter int
	willCrash  bool
	completed  int           // attempts committed
	running    int           // taken attempts still executing
	pending    []*attemptRun // taken, uncommitted, in take order
}

// attemptRun is one taken attempt: the TaskCtx fixed when it was taken
// and, once its executor returns, the outcome.
type attemptRun struct {
	att      *attemptMeta
	dev      *devRun
	tc       TaskCtx
	span     *obs.Span
	injected bool // an injected transient fault: nothing executes
	finished bool
	dur      float64
	err      error
}

// RunGeneration executes the tasks FIFO across the pool's virtual
// devices on real executor goroutines. Transient failures (injected by
// the fault plan or returned by tasks via Transient) are retried under
// the retry policy; a crashing device is drained and its work
// redistributed to survivors.
//
// Execution width is not device count. A dispatcher fixes each attempt's
// TaskCtx when it takes it. With W = GOMAXPROCS and D devices alive at
// the generation start, each device runs up to ⌈W/D⌉ attempts at once
// (one if it is scheduled to crash) and commits their outcomes in take
// order, like a reorder buffer, so every order-dependent effect is that
// of the device running them one after another. At D = 1 a generation
// thus runs W wide and bit-identical to GOMAXPROCS = 1; at D ≥ W each
// device runs one attempt at a time, and which device takes the next
// task is a race between real completions. Every device may always run
// one attempt; a further one runs only while the attempts running in all
// pools of the process number at most W, so concurrent searches share
// the cores.
//
// All tasks run even if some fail: task errors are aggregated with
// errors.Join and returned alongside the report, and the generation's
// accounting (including completed tasks) is always committed. On a
// fault-free generation the deterministic FIFO list schedule is
// reconstructed in simulated time exactly as the paper models it (task k
// goes to the device that frees earliest); when faults, retries, or
// deadlines intervene, the accounting follows the dynamic schedule the
// dispatcher actually produced.
func (p *Pool) RunGeneration(ctx context.Context, tasks []Task) (*GenerationReport, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("sched: empty generation")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(p.devices)
	g := &genRun{
		pool:      p,
		tasks:     tasks,
		done:      make([]bool, len(tasks)),
		durations: make([]float64, len(tasks)),
		errs:      make([]error, len(tasks)),
		alive:     make([]bool, n),
		vt:        make([]float64, n),
		busyDev:   make([]float64, n),
		aliveEnd:  make([]float64, n),
		budget:    -1,
	}
	p.mu.Lock()
	g.gen, g.obsv = p.nextGen, p.obsv
	p.nextGen++
	g.startDead = append([]bool(nil), p.dead...)
	for i := range g.alive {
		g.alive[i] = !p.dead[i]
	}
	p.mu.Unlock()
	gen, obsv, aliveCount := g.gen, g.obsv, g.aliveCount()
	if aliveCount == 0 {
		return nil, fmt.Errorf("sched: no alive devices (all %d crashed)", n)
	}

	// The generation span parents every task span dispatched below; its
	// attributes carry the simulated accounting for telemetry.
	ctx, gspan := obs.StartSpan(ctx, obs.SpanGeneration)
	g.ctx = ctx
	obsv.journal.Emit(obs.Event{
		Type:    obs.EventGenerationStart,
		Gen:     gen,
		Tasks:   len(tasks),
		Devices: aliveCount,
	})

	if p.retry.Budget > 0 {
		g.budget = p.retry.Budget
	}
	for i := range tasks {
		g.queue = append(g.queue, &attemptMeta{task: i, attempt: 1})
	}
	for i, dev := range p.devices {
		if !g.alive[i] {
			continue
		}
		// The device's fate this generation, from the fault plan.
		d := &devRun{dev: dev, slow: 1}
		if p.plan != nil {
			d.crashAfter, d.willCrash = p.plan.crashPoint(gen, dev.ID)
			d.slow = p.plan.slowFactor(gen, dev.ID)
		}
		if d.slow > 1 {
			obsv.stragglers.Inc()
			obsv.journal.Emit(obs.Event{Type: obs.EventStraggler, Gen: gen, Device: dev.ID, SlowFactor: d.slow})
		}
		g.devs = append(g.devs, d)
	}
	g.dispatch(runtime.GOMAXPROCS(0))

	for i := range g.errs {
		switch {
		case g.done[i]: // finished, or failed with its error
		case ctx.Err() != nil: // left behind by cancellation
			g.errs[i] = fmt.Errorf("sched: task %d: %w", i, ctx.Err())
		default:
			g.errs[i] = fmt.Errorf("sched: task %d: no alive device left", i)
		}
	}
	err := errors.Join(g.errs...) // drops the nil errors of tasks that succeeded

	var rep *GenerationReport
	if g.retries == 0 && g.faults == 0 {
		// Fault-free: reconstruct the deterministic FIFO list schedule
		// over the devices that were alive at generation start.
		rep = simulateFIFO(g.startDead, g.durations)
	} else {
		rep = g.report()
	}

	aliveAfter := g.aliveCount()
	p.mu.Lock()
	for i, a := range g.alive {
		p.dead[i] = p.dead[i] || !a
	}
	p.wall += rep.WallSeconds
	busy := 0.0
	for _, b := range rep.DeviceBusy {
		p.busy += b
		busy += b
	}
	p.idle += rep.IdleSeconds
	p.tasks += len(tasks)
	p.retries += rep.Retries
	p.faults += rep.Faults
	p.lost += rep.LostSeconds
	p.mu.Unlock()

	obsv.generations.Inc()
	obsv.tasks.Add(len(tasks))
	obsv.genWall.Set(rep.WallSeconds)
	obsv.idle.Add(rep.IdleSeconds)
	flops := 0.0
	for i, b := range rep.DeviceBusy {
		if i < len(obsv.devBusy) {
			obsv.devBusy[i].Add(b)
		}
		if rep.WallSeconds > 0 && i < len(obsv.devUtil) {
			obsv.devUtil[i].Set(100 * b / rep.WallSeconds)
		}
		flops += b * p.devices[i].Throughput
	}
	// Effective simulated throughput this generation: FLOPs actually
	// processed over the generation makespan — the GFLOP/s trajectory
	// the cross-run regression monitor compares against a baseline.
	if rep.WallSeconds > 0 {
		obsv.gflops.Set(flops / rep.WallSeconds / 1e9)
	}
	gspan.SetInt("gen", gen)
	gspan.SetInt("tasks", len(tasks))
	gspan.SetFloat("wall_s", rep.WallSeconds)
	gspan.SetFloat("busy_s", busy)
	gspan.SetFloat("idle_s", rep.IdleSeconds)
	gspan.SetFloat("lost_s", rep.LostSeconds)
	gspan.SetInt("retries", rep.Retries)
	gspan.SetInt("faults", rep.Faults)
	gspan.End()
	obsv.journal.Emit(obs.Event{
		Type:        obs.EventGenerationEnd,
		Gen:         gen,
		Tasks:       len(tasks),
		Devices:     aliveAfter,
		WallSeconds: rep.WallSeconds,
		IdleSeconds: rep.IdleSeconds,
		LostSeconds: rep.LostSeconds,
		DeviceBusy:  append([]float64(nil), rep.DeviceBusy...),
		Retries:     rep.Retries,
		Faults:      rep.Faults,
	})
	return rep, err
}

// dispatch runs the generation on up to cores executors: it commits
// every outcome it can, takes attempts onto devices with spare width,
// then waits for an executor to return — until nothing runs, which
// happens once every task is done or the context is canceled and the
// executors have drained.
func (g *genRun) dispatch(cores int) {
	width := (cores + len(g.devs) - 1) / len(g.devs)
	finished := make(chan *attemptRun)
	for {
		for g.commit() || g.take(cores, width, finished) {
		}
		if g.running == 0 {
			break
		}
		r := <-finished
		r.finished = true
		r.dev.running--
		g.running--
	}
	// A scheduled crash that never found its mid-generation trigger (the
	// device never reached its quota) still fires at the barrier, so the
	// next generation sees the device gone; no work is lost in that case.
	for _, d := range g.devs {
		if d.willCrash && g.alive[d.dev.ID] && g.aliveCount() > 1 {
			g.fault(obs.Event{Device: d.dev.ID, Err: "device crash at generation barrier"})
			g.markDead(d.dev)
		}
	}
}

// take hands queued attempts, FIFO and one per device per round, to the
// alive devices with spare width until none can take another. A device
// scheduled to crash holds one attempt at a time, so its crash fires
// exactly when it would were it running them one after another. A device
// running an attempt takes another only if an executor is free among the
// process's cores. Reports whether anything was taken.
func (g *genRun) take(cores, width int, finished chan<- *attemptRun) (took bool) {
	for more := true; more && g.ctx.Err() == nil; {
		more = false
		for _, d := range g.devs {
			if !g.alive[d.dev.ID] || d.running >= width || d.willCrash && len(d.pending) > 0 {
				continue
			}
			if n := executors.Add(1); d.running > 0 && int(n) > cores {
				executors.Add(-1)
				continue
			}
			att := g.pop(d.dev.ID)
			if att == nil || !g.start(d, att, finished) {
				executors.Add(-1)
			}
			if att != nil {
				more, took = true, true
			}
		}
	}
	return took
}

// start takes one attempt onto the device: it crashes the device, or
// queues an injected fault, or fixes the TaskCtx and starts an executor.
// Reports whether it started one.
func (g *genRun) start(d *devRun, att *attemptMeta, finished chan<- *attemptRun) bool {
	p, dev := g.pool, d.dev
	// Crash mid-generation: the device dies taking the popped attempt
	// down with it; the lost work is requeued at the head (it was next
	// in FIFO order) for the survivors.
	if d.willCrash && d.completed >= d.crashAfter && g.aliveCount() > 1 {
		loss := p.plan.failPointLoss(g.meanDur())
		g.busyDev[dev.ID] += loss
		g.vt[dev.ID] += loss
		g.lost += loss
		g.retries++
		g.obsv.retries.Inc()
		g.fault(obs.Event{Task: att.task, Attempt: att.attempt, Device: dev.ID, SimSeconds: loss, Err: "device crash"})
		att.excludeDev(dev.ID)
		g.queue = append([]*attemptMeta{att}, g.queue...)
		g.markDead(dev)
		return false
	}
	r := &attemptRun{att: att, dev: d}
	d.pending = append(d.pending, r)
	// Injected transient failure: the attempt dies before the task runs;
	// its loss is sized when it commits.
	if p.plan != nil && p.plan.transient(g.gen, att.task, att.attempt) {
		r.injected, r.finished = true, true
		return false
	}
	// The task span parents the orchestrator's epoch spans (via tc.Ctx)
	// and the orchestrator annotates it with epochs trained and saved.
	tctx, tspan := obs.StartSpan(g.ctx, obs.SpanTask)
	tspan.SetInt("gen", g.gen)
	tspan.SetInt("task", att.task)
	tspan.SetInt("attempt", att.attempt)
	tspan.SetInt("device", dev.ID)
	r.span = tspan
	r.tc = TaskCtx{
		Ctx:             tctx,
		Dev:             dev,
		Generation:      g.gen,
		Task:            att.task,
		Attempt:         att.attempt,
		SlowFactor:      d.slow,
		DeadlineSeconds: p.deadline,
	}
	d.running++
	g.running++
	go func() {
		r.dur, r.err = g.tasks[r.tc.Task](r.tc)
		executors.Add(-1)
		finished <- r
	}()
	return true
}

// commit applies, device by device, each outcome at the head of the
// device's take order whose executor has returned. Reports whether it
// applied any.
func (g *genRun) commit() (did bool) {
	for _, d := range g.devs {
		for len(d.pending) > 0 && d.pending[0].finished {
			r := d.pending[0]
			d.pending = d.pending[1:]
			d.completed++
			g.apply(r)
			did = true
		}
	}
	return did
}

// apply books one outcome in simulated time, as the device's next
// attempt after everything it committed before.
func (g *genRun) apply(r *attemptRun) {
	att, dev := r.att, r.dev.dev
	if r.injected {
		loss := g.pool.plan.failPointLoss(g.meanDur())
		g.busyDev[dev.ID] += loss
		g.vt[dev.ID] += loss
		g.fail(att, dev, loss, Transient("injected", ErrInjectedFault))
		return
	}
	// queue_wait_s is the simulated time the task waited behind the FIFO
	// queue; the span ends here, so it also covers the real time the
	// outcome waited for its turn to commit.
	start := max(g.vt[dev.ID], att.notBefore)
	r.span.SetFloat("queue_wait_s", start)
	r.span.SetFloat("sim_s", r.dur)
	if r.err != nil {
		r.span.SetAttr("error", r.err.Error())
	}
	r.span.End()
	g.obsv.dispatches.Inc()
	g.obsv.queueWait.Observe(start)
	dispatch := obs.Event{
		Type:    obs.EventTaskDispatch,
		Gen:     g.gen,
		Task:    att.task,
		Attempt: att.attempt,
		Device:  dev.ID,
	}
	if r.tc.SlowFactor > 1 {
		dispatch.SlowFactor = r.tc.SlowFactor
	}
	g.obsv.journal.Emit(dispatch)
	g.busyDev[dev.ID] += r.dur
	g.vt[dev.ID] = start + r.dur
	switch {
	case r.err == nil:
		g.done[att.task] = true
		g.durations[att.task] = r.dur
		g.sumDur += r.dur
		g.nDur++
		g.obsv.taskLatency.Observe(r.dur)
	case IsTransient(r.err) && g.ctx.Err() == nil:
		g.fail(att, dev, r.dur, r.err)
	default:
		g.errs[att.task] = fmt.Errorf("sched: task %d (attempt %d): %w", att.task, att.attempt, r.err)
		g.done[att.task] = true
	}
}

// fail books a transient failure: retry with backoff on another device
// when attempts and budget remain, otherwise fail the task.
func (g *genRun) fail(att *attemptMeta, dev Device, cost float64, cause error) {
	g.lost += cost
	g.fault(obs.Event{Task: att.task, Attempt: att.attempt, Device: dev.ID, SimSeconds: cost, Err: cause.Error()})
	maxAttempts := g.pool.retry.maxAttempts(g.pool.plan != nil)
	if att.attempt >= maxAttempts || g.budget == 0 {
		g.errs[att.task] = fmt.Errorf("sched: task %d failed after %d attempt(s): %w", att.task, att.attempt, cause)
		g.done[att.task] = true
		return
	}
	if g.budget > 0 {
		g.budget--
	}
	g.retries++
	g.obsv.retries.Inc()
	att.attempt++
	att.excludeDev(dev.ID)
	att.notBefore = g.vt[dev.ID] + g.pool.retry.backoff(att.attempt)
	g.obsv.journal.Emit(obs.Event{
		Type:    obs.EventTaskRetry,
		Gen:     g.gen,
		Task:    att.task,
		Attempt: att.attempt,
		Device:  dev.ID,
	})
	g.queue = append(g.queue, att)
}

// fault counts a fault and journals it as a task_fault event.
func (g *genRun) fault(e obs.Event) {
	g.faults++
	g.obsv.faults.Inc()
	e.Type, e.Gen = obs.EventTaskFault, g.gen
	g.obsv.journal.Emit(e)
}

// pop removes and returns the first queued attempt eligible for the
// device. An attempt whose exclusions cover every alive device has its
// exclusions cleared (better a previously failed device than deadlock).
func (g *genRun) pop(devID int) *attemptMeta {
	for qi, att := range g.queue {
		if att.exclude[devID] {
			if g.excludesAllAlive(att) {
				att.exclude = nil
			} else {
				continue
			}
		}
		g.queue = append(g.queue[:qi], g.queue[qi+1:]...)
		return att
	}
	return nil
}

func (g *genRun) excludesAllAlive(att *attemptMeta) bool {
	for i, a := range g.alive {
		if a && !att.exclude[i] {
			return false
		}
	}
	return true
}

func (g *genRun) aliveCount() int {
	n := 0
	for _, a := range g.alive {
		if a {
			n++
		}
	}
	return n
}

func (g *genRun) markDead(dev Device) {
	g.alive[dev.ID] = false
	g.aliveEnd[dev.ID] = g.vt[dev.ID]
}

func (g *genRun) meanDur() float64 {
	if g.nDur == 0 {
		return 0
	}
	return g.sumDur / float64(g.nDur)
}

// report assembles the accounting of a generation that saw faults or
// retries, following the dynamic schedule the dispatcher produced.
func (g *genRun) report() *GenerationReport {
	wall, idle := slices.Max(g.vt), 0.0
	for i := range g.pool.devices {
		if g.startDead[i] {
			continue
		}
		end := wall
		if !g.alive[i] {
			end = g.aliveEnd[i]
		}
		idle += end - g.busyDev[i]
	}
	return &GenerationReport{
		TaskSeconds: append([]float64(nil), g.durations...),
		DeviceBusy:  append([]float64(nil), g.busyDev...),
		WallSeconds: wall,
		IdleSeconds: idle,
		Retries:     g.retries,
		Faults:      g.faults,
		LostSeconds: g.lost,
	}
}

// simulateFIFO assigns tasks in order, each to the alive device that
// becomes available first (ties to the lowest ID), and computes the
// makespan; DeviceBusy spans every device (dead ones stay 0).
func simulateFIFO(dead []bool, durations []float64) *GenerationReport {
	var idx []int
	for i, d := range dead {
		if !d {
			idx = append(idx, i)
		}
	}
	avail := make([]float64, len(idx))
	busy := make([]float64, len(dead))
	for _, d := range durations {
		best := 0
		for j := 1; j < len(avail); j++ {
			if avail[j] < avail[best] {
				best = j
			}
		}
		avail[best] += d
		busy[idx[best]] += d
	}
	return barrierReport(durations, busy, dead)
}

// barrierReport is the accounting of a static schedule that kept each
// device busy for busy[i] seconds: the generation ends when the busiest
// device does, and every alive device idles until then.
func barrierReport(durations, busy []float64, dead []bool) *GenerationReport {
	wall, idle := slices.Max(busy), 0.0
	for i, b := range busy {
		if !dead[i] {
			idle += wall - b
		}
	}
	return &GenerationReport{
		TaskSeconds: append([]float64(nil), durations...),
		DeviceBusy:  busy,
		WallSeconds: wall,
		IdleSeconds: idle,
	}
}

// AddOverhead charges extra simulated wall time not attributable to any
// device — the A4NN prediction-engine overhead the paper measures
// (~52 s per 100-model test).
func (p *Pool) AddOverhead(simSeconds float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wall += simSeconds
	p.overheads += simSeconds
}

// Totals summarises the pool's cumulative simulated accounting.
type Totals struct {
	WallSeconds     float64
	BusySeconds     float64
	IdleSeconds     float64
	OverheadSeconds float64
	Tasks           int
	Devices         int
	// Retries counts re-dispatched attempts across generations.
	Retries int
	// Faults counts fault events (injected errors, crashes, deadline
	// misses, real transient failures).
	Faults int
	// LostSeconds is the simulated time wasted on failed attempts.
	LostSeconds float64
	// DeadDevices counts devices lost to crashes.
	DeadDevices int
}

// Totals returns the accumulated accounting across all generations.
func (p *Pool) Totals() Totals {
	p.mu.Lock()
	defer p.mu.Unlock()
	deadCount := 0
	for _, d := range p.dead {
		if d {
			deadCount++
		}
	}
	return Totals{
		WallSeconds:     p.wall,
		BusySeconds:     p.busy,
		IdleSeconds:     p.idle,
		OverheadSeconds: p.overheads,
		Tasks:           p.tasks,
		Devices:         len(p.devices),
		Retries:         p.retries,
		Faults:          p.faults,
		LostSeconds:     p.lost,
		DeadDevices:     deadCount,
	}
}

// Reset clears the cumulative accounting and revives crashed devices
// (the device list and fault configuration are kept).
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wall, p.busy, p.idle, p.overheads, p.tasks = 0, 0, 0, 0, 0
	p.retries, p.faults, p.lost, p.nextGen = 0, 0, 0, 0
	for i := range p.dead {
		p.dead[i] = false
	}
}
