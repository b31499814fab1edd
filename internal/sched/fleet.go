package sched

// Fleet generalises the single-search FIFO pool to a multi-job device
// arbiter: one fixed set of device slots shared by many concurrent
// searches, granted a generation at a time under weighted fair-share
// (stride) scheduling. Each job keeps its own Pool — and therefore its
// own deterministic task→device assignment, so a job's results are
// byte-identical to the same-seed single-job run — while the fleet
// decides only *when* each generation's slots are available. Preemption
// is at generation boundaries: a grant is never revoked mid-generation;
// a paused or deprioritised job simply stops winning new grants.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// beforeWait, when set, runs under f.mu just before Acquire's cond.Wait.
var beforeWait func() // test hook

// Fleet arbitrates a fixed number of device slots across jobs.
type Fleet struct {
	capacity int

	mu     sync.Mutex
	cond   *sync.Cond
	free   int
	jobs   map[string]*fleetJob
	seq    uint64 // FIFO tiebreak for equal passes
	closed bool

	clock func() time.Time // injectable for tests
}

// fleetJob is one registered job's scheduling state.
type fleetJob struct {
	id     string
	weight float64
	pass   float64 // stride-scheduling virtual time; lowest pass wins
	paused bool

	waiting   bool   // an Acquire is blocked for this job
	want      int    // slots the blocked Acquire needs
	seq       uint64 // arrival order, tiebreak for equal passes
	granted   int    // slots currently held
	grants    int    // generations granted so far
	waitSecs  float64
	slotSecs  float64 // slot-seconds held (wall clock), for utilisation
	waitSince time.Time
}

// NewFleet creates a fleet of capacity device slots.
func NewFleet(capacity int) (*Fleet, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("sched: fleet needs ≥ 1 slot, got %d", capacity)
	}
	f := &Fleet{
		capacity: capacity,
		free:     capacity,
		jobs:     make(map[string]*fleetJob),
		clock:    time.Now,
	}
	f.cond = sync.NewCond(&f.mu)
	return f, nil
}

// Capacity returns the fleet's total device slots.
func (f *Fleet) Capacity() int { return f.capacity }

// Register adds a job with the given scheduling weight (≥ 1; a job with
// twice the weight is granted generations twice as often under
// contention). The job starts at the minimum pass of the registered
// jobs so it gets its fair share from now on, not retroactive credit
// for the time before it existed.
func (f *Fleet) Register(id string, weight float64) error {
	if id == "" {
		return fmt.Errorf("sched: fleet job needs an id")
	}
	if weight < 1 {
		return fmt.Errorf("sched: fleet job %q weight %v < 1", id, weight)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("sched: fleet closed")
	}
	if _, ok := f.jobs[id]; ok {
		return fmt.Errorf("sched: fleet job %q already registered", id)
	}
	f.jobs[id] = &fleetJob{id: id, weight: weight, pass: f.minPassLocked()}
	return nil
}

// Unregister removes a job. Held slots are returned; a blocked Acquire
// for the job fails on its next wakeup.
func (f *Fleet) Unregister(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if j, ok := f.jobs[id]; ok {
		f.free += j.granted
		delete(f.jobs, id)
		f.cond.Broadcast()
	}
}

// SetWeight changes a job's fair-share weight; it takes effect at the
// job's next grant (preemption stays at generation boundaries).
func (f *Fleet) SetWeight(id string, weight float64) error {
	if weight < 1 {
		return fmt.Errorf("sched: fleet job %q weight %v < 1", id, weight)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	if !ok {
		return fmt.Errorf("sched: fleet job %q not registered", id)
	}
	j.weight = weight
	f.cond.Broadcast()
	return nil
}

// Pause stops granting new generations to the job. Slots it already
// holds are kept until released — preemption is at generation
// boundaries, never mid-generation.
func (f *Fleet) Pause(id string) error { return f.setPaused(id, true) }

// Resume re-enables granting to a paused job.
func (f *Fleet) Resume(id string) error { return f.setPaused(id, false) }

func (f *Fleet) setPaused(id string, paused bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	if !ok {
		return fmt.Errorf("sched: fleet job %q not registered", id)
	}
	j.paused = paused
	f.cond.Broadcast()
	return nil
}

// Close fails all blocked and future Acquires.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Acquire blocks until the job is granted n device slots, then returns
// a release function to call at the generation barrier. Grants are
// ordered by stride scheduling: among unpaused jobs with a blocked
// Acquire, the one with the lowest pass wins as soon as its request
// fits the free slots; its pass then advances by n/weight. A
// low-weight job's pass advances faster, so it wins less often under
// contention but its pass eventually undercuts everyone else's — no
// job starves. The head job (lowest pass) is never bypassed by a
// smaller request behind it, so wide jobs cannot be starved by narrow
// ones either.
//
// At most one Acquire may be outstanding per job at a time.
func (f *Fleet) Acquire(ctx context.Context, id string, n int) (release func(), err error) {
	if n < 1 {
		return nil, fmt.Errorf("sched: fleet job %q acquiring %d slots", id, n)
	}
	if n > f.capacity {
		return nil, fmt.Errorf("sched: fleet job %q needs %d slots, fleet has %d", id, n, f.capacity)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	f.mu.Lock()
	j, ok := f.jobs[id]
	if !ok {
		f.mu.Unlock()
		return nil, fmt.Errorf("sched: fleet job %q not registered", id)
	}
	if j.waiting {
		f.mu.Unlock()
		return nil, fmt.Errorf("sched: fleet job %q already has an Acquire outstanding", id)
	}
	j.waiting = true
	j.want = n
	f.seq++
	j.seq = f.seq
	j.waitSince = f.clock()
	f.mu.Unlock()

	// Wake the cond loop when the context is canceled. The broadcast
	// takes f.mu, so it cannot fall between the loop's ctx.Err() check
	// and cond.Wait and be lost.
	stop := context.AfterFunc(ctx, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer stop()

	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		// The job may have been unregistered (canceled) while waiting.
		cur, ok := f.jobs[id]
		if !ok || cur != j {
			return nil, fmt.Errorf("sched: fleet job %q unregistered while waiting", id)
		}
		if f.closed {
			j.waiting = false
			return nil, fmt.Errorf("sched: fleet closed")
		}
		if err := ctx.Err(); err != nil {
			j.waiting = false
			return nil, err
		}
		if !j.paused && f.headLocked() == j && j.want <= f.free {
			break
		}
		if beforeWait != nil {
			beforeWait()
		}
		f.cond.Wait()
	}

	// Granted: charge the stride and hand out the slots.
	j.waiting = false
	j.granted += n
	j.grants++
	j.pass += float64(n) / j.weight
	j.waitSecs += f.clock().Sub(j.waitSince).Seconds()
	f.free -= n
	start := f.clock()
	// Another waiter may now be head (or fit in the remaining slots).
	f.cond.Broadcast()

	var once sync.Once
	return func() {
		once.Do(func() {
			f.mu.Lock()
			// The job may have been unregistered after the grant; its
			// slots were already returned then.
			if cur, ok := f.jobs[id]; ok && cur == j {
				j.granted -= n
				j.slotSecs += f.clock().Sub(start).Seconds() * float64(n)
				f.free += n
			}
			f.cond.Broadcast()
			f.mu.Unlock()
		})
	}, nil
}

// headLocked returns the unpaused waiting job with the lowest pass
// (ties to arrival order), or nil. Callers hold f.mu.
func (f *Fleet) headLocked() *fleetJob {
	var head *fleetJob
	for _, j := range f.jobs {
		if !j.waiting || j.paused {
			continue
		}
		if head == nil || j.pass < head.pass || (j.pass == head.pass && j.seq < head.seq) {
			head = j
		}
	}
	return head
}

// minPassLocked returns the lowest pass among registered jobs, or 0.
func (f *Fleet) minPassLocked() float64 {
	min, any := 0.0, false
	for _, j := range f.jobs {
		if !any || j.pass < min {
			min, any = j.pass, true
		}
	}
	return min
}

// FleetJobStatus is one job's slice of a fleet snapshot.
type FleetJobStatus struct {
	ID          string  `json:"id"`
	Weight      float64 `json:"weight"`
	Pass        float64 `json:"pass"`
	Paused      bool    `json:"paused"`
	Waiting     bool    `json:"waiting"`
	WantSlots   int     `json:"want_slots,omitempty"`
	HeldSlots   int     `json:"held_slots"`
	Grants      int     `json:"grants"`
	WaitSeconds float64 `json:"wait_seconds"`
	SlotSeconds float64 `json:"slot_seconds"`
	// EntitledShare is the job's stride entitlement: weight over the sum
	// of registered weights. MeasuredShare is what it actually received:
	// its device-seconds over the fleet's total. Comparing the two per
	// job is the fairness audit the fleet metrics endpoint exports.
	EntitledShare float64 `json:"entitled_share"`
	MeasuredShare float64 `json:"measured_share"`
}

// FleetStatus is a point-in-time view of the arbiter, for /api/fleet.
type FleetStatus struct {
	Capacity int              `json:"capacity"`
	InUse    int              `json:"in_use"`
	Waiting  int              `json:"waiting"`
	Jobs     []FleetJobStatus `json:"jobs"`
}

// Status snapshots the fleet: slot occupancy and each job's scheduling
// state, sorted by job ID.
func (f *Fleet) Status() FleetStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FleetStatus{Capacity: f.capacity, InUse: f.capacity - f.free}
	var totalWeight, totalSlotSecs float64
	for _, j := range f.jobs {
		totalWeight += j.weight
		totalSlotSecs += j.slotSecs
	}
	for _, j := range f.jobs {
		js := FleetJobStatus{
			ID:          j.id,
			Weight:      j.weight,
			Pass:        j.pass,
			Paused:      j.paused,
			Waiting:     j.waiting,
			HeldSlots:   j.granted,
			Grants:      j.grants,
			WaitSeconds: j.waitSecs,
			SlotSeconds: j.slotSecs,
		}
		if totalWeight > 0 {
			js.EntitledShare = j.weight / totalWeight
		}
		if totalSlotSecs > 0 {
			js.MeasuredShare = j.slotSecs / totalSlotSecs
		}
		if j.waiting {
			js.WantSlots = j.want
			st.Waiting++
		}
		st.Jobs = append(st.Jobs, js)
	}
	sort.Slice(st.Jobs, func(a, b int) bool { return st.Jobs[a].ID < st.Jobs[b].ID })
	return st
}
