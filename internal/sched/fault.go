package sched

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file is the fault model of the resource manager: a deterministic,
// seedable FaultPlan that injects device crashes, transient task errors,
// and slowdown (straggler) factors per device×generation; a RetryPolicy
// with exponential backoff; and the
// transient/fatal error vocabulary shared with the workflow runner. The
// paper's scaling claim (§4.4) assumes every accelerator survives a
// multi-hour search; these knobs let the scheduler be exercised — and
// tested — under the failures real NAS campaigns actually see.

// ErrInjectedFault marks a transient task failure injected by a FaultPlan.
var ErrInjectedFault = errors.New("injected transient fault")

// ErrDeadline marks a task attempt abandoned because its simulated cost
// exceeded the pool's per-attempt deadline (a straggler).
var ErrDeadline = errors.New("task deadline exceeded")

// TransientError marks an error as retryable: the scheduler re-dispatches
// the attempt (on a different device when possible) instead of failing
// the task. Producers wrap with Transient; consumers test with IsTransient.
type TransientError struct {
	// Reason is a short classification label ("injected", "deadline",
	// "train step", ...).
	Reason string
	Err    error
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("transient (%s): %v", e.Reason, e.Err)
}

func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as a retryable failure.
func Transient(reason string, err error) error {
	return &TransientError{Reason: reason, Err: err}
}

// IsTransient reports whether err (or anything it wraps) is retryable.
func IsTransient(err error) bool {
	var t *TransientError
	return errors.As(err, &t)
}

// DeviceCrash schedules one explicit device failure.
type DeviceCrash struct {
	// Device is the crashing device's ID.
	Device int
	// Generation is the pool generation (0-based RunGeneration call
	// index) in which the device dies.
	Generation int
	// AfterTasks is how many attempts the device completes in that
	// generation before dying mid-task; the doomed attempt's work is
	// lost and redistributed. Negative selects the default (1).
	AfterTasks int
}

// FaultPlan deterministically injects faults into a Pool. All decisions
// are pure functions of (Seed, generation, device/task, attempt), so the
// same plan reproduces the same fault sequence on every run — the fault
// analogue of the workflow's seeded searches.
//
// Three fault classes are modelled:
//
//   - Device crashes: a device dies mid-generation (explicitly via
//     Crashes, or with probability CrashProb per device×generation). The
//     dead device is drained — its queued work is redistributed FIFO to
//     the survivors — and it stays dead for the rest of the search. The
//     last surviving device never crashes.
//   - Transient task errors: with probability TransientProb an attempt
//     fails before running; the scheduler retries it under the pool's
//     RetryPolicy.
//   - Slowdowns: with probability SlowdownProb a device is a straggler
//     for a generation; its TaskCtx.SlowFactor is SlowdownFactor, which
//     cooperative tasks (the workflow runner) apply to their per-epoch
//     cost — tripping the pool deadline and re-dispatching elsewhere.
type FaultPlan struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// Crashes are explicit scheduled device failures.
	Crashes []DeviceCrash
	// CrashProb is the per-device×generation crash probability.
	CrashProb float64
	// TransientProb is the per-attempt transient failure probability.
	TransientProb float64
	// FailPoint is the fraction of a typical attempt's duration wasted
	// by an injected failure or crash (default 0.5).
	FailPoint float64
	// SlowdownProb is the per-device×generation straggler probability.
	SlowdownProb float64
	// SlowdownFactor is the cost multiplier of a slowed device, in
	// [1, maxSlowdownFactor] (default 4).
	SlowdownFactor float64
}

// maxSlowdownFactor bounds FaultPlan.SlowdownFactor: a device slower
// than that is better modelled as crashed.
const maxSlowdownFactor = 1000

// Validate reports the first problem with the plan, or nil. Every range
// check is written as !(in range), so NaN is out of every range.
func (f *FaultPlan) Validate() error {
	for name, p := range map[string]float64{
		"CrashProb": f.CrashProb, "TransientProb": f.TransientProb,
		"SlowdownProb": f.SlowdownProb, "FailPoint": f.FailPoint,
	} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("sched: fault plan %s %v outside [0,1]", name, p)
		}
	}
	if f.SlowdownFactor != 0 && !(f.SlowdownFactor >= 1 && f.SlowdownFactor <= maxSlowdownFactor) {
		return fmt.Errorf("sched: SlowdownFactor %v outside [1,%d]", f.SlowdownFactor, maxSlowdownFactor)
	}
	for _, c := range f.Crashes {
		if c.Device < 0 || c.Generation < 0 {
			return fmt.Errorf("sched: crash %+v has negative device or generation", c)
		}
	}
	return nil
}

// crashPoint reports whether (and after how many completed attempts) the
// device crashes in the generation.
func (f *FaultPlan) crashPoint(gen, dev int) (after int, ok bool) {
	for _, c := range f.Crashes {
		if c.Device == dev && c.Generation == gen {
			if c.AfterTasks < 0 {
				return 1, true
			}
			return c.AfterTasks, true
		}
	}
	if f.CrashProb > 0 && f.uniform(1, gen, dev) < f.CrashProb {
		return 1, true // a probabilistic crash strikes after one attempt
	}
	return 0, false
}

// transient reports whether the attempt fails with an injected error.
func (f *FaultPlan) transient(gen, task, attempt int) bool {
	return f.TransientProb > 0 && f.uniform(2, gen, task, attempt) < f.TransientProb
}

// slowFactor returns the device's cost multiplier for the generation
// (1 when not slowed).
func (f *FaultPlan) slowFactor(gen, dev int) float64 {
	if f.SlowdownProb > 0 && f.uniform(3, gen, dev) < f.SlowdownProb {
		if f.SlowdownFactor >= 1 {
			return f.SlowdownFactor
		}
		return 4
	}
	return 1
}

// failPointLoss is the simulated time an injected failure wastes, given
// the running mean attempt duration of the generation.
func (f *FaultPlan) failPointLoss(meanDur float64) float64 {
	fp := f.FailPoint
	if fp == 0 {
		fp = 0.5
	}
	return fp * meanDur
}

// uniform derives a deterministic uniform in [0,1) from the seed and an
// integer key (splitmix64 over the mixed-in parts).
func (f *FaultPlan) uniform(parts ...int) float64 {
	h := uint64(f.Seed) ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		h = splitmix64(h ^ uint64(uint32(p)))
	}
	return float64(h>>11) / float64(uint64(1)<<53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// ParseFaultPlan parses a compact CLI fault specification: ';'- or
// ','-separated key=value fields:
//
//	seed=N            probabilistic decision seed
//	transient=P       per-attempt transient failure probability
//	crash=D@G         explicit crash of device D in generation G
//	crash=D@G+K       ... after completing K attempts (default 1)
//	crash=P           per-device×generation crash probability
//	slowdown=P        per-device×generation straggler probability
//	slowfactor=F      straggler cost multiplier in [1,1000] (default 4)
//	failpoint=F       fraction of an attempt wasted per failure
//
// Example: "transient=0.05;crash=1@2;slowdown=0.1;seed=7".
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	plan := &FaultPlan{}
	fields := strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' })
	if len(fields) == 0 {
		return nil, fmt.Errorf("sched: empty fault plan spec")
	}
	for _, field := range fields {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("sched: fault plan field %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			plan.Seed, err = strconv.ParseInt(val, 10, 64)
		case "transient":
			plan.TransientProb, err = strconv.ParseFloat(val, 64)
		case "slowdown":
			plan.SlowdownProb, err = strconv.ParseFloat(val, 64)
		case "slowfactor":
			plan.SlowdownFactor, err = strconv.ParseFloat(val, 64)
		case "failpoint":
			plan.FailPoint, err = strconv.ParseFloat(val, 64)
		case "crash":
			if !strings.Contains(val, "@") {
				plan.CrashProb, err = strconv.ParseFloat(val, 64)
				break
			}
			devStr, genStr, _ := strings.Cut(val, "@")
			c := DeviceCrash{AfterTasks: -1}
			if genStr, afterStr, hasAfter := strings.Cut(genStr, "+"); hasAfter {
				if c.AfterTasks, err = strconv.Atoi(afterStr); err != nil {
					break
				}
				c.Generation, err = strconv.Atoi(genStr)
			} else {
				c.Generation, err = strconv.Atoi(genStr)
			}
			if err != nil {
				break
			}
			if c.Device, err = strconv.Atoi(devStr); err != nil {
				break
			}
			plan.Crashes = append(plan.Crashes, c)
		default:
			return nil, fmt.Errorf("sched: unknown fault plan key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("sched: fault plan field %q: %v", field, err)
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// RetryPolicy tunes per-task retry of transient failures. The zero value
// retries nothing unless a fault plan is installed, in which case it
// defaults to 3 attempts. A retry waits out a simulated backoff of 2 s
// before the second attempt, doubling per attempt up to 30 s.
type RetryPolicy struct {
	// MaxAttempts is the per-task attempt ceiling (0 selects the
	// default: 1 without a fault plan, 3 with one).
	MaxAttempts int
}

// Validate reports the first problem with the policy, or nil.
func (rp RetryPolicy) Validate() error {
	if rp.MaxAttempts < 0 {
		return fmt.Errorf("sched: negative retry policy %+v", rp)
	}
	return nil
}

// maxAttempts resolves the per-task attempt ceiling.
func (rp RetryPolicy) maxAttempts(faultsPlanned bool) int {
	if rp.MaxAttempts > 0 {
		return rp.MaxAttempts
	}
	if faultsPlanned {
		return 3
	}
	return 1
}

// backoff returns the simulated delay before the given (2-based) attempt.
func (rp RetryPolicy) backoff(attempt int) float64 {
	return math.Min(2*math.Pow(2, float64(attempt-2)), 30)
}
